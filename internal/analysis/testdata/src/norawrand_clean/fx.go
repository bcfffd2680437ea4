// Package fx is the norawrand clean fixture (analyzed as
// ec2wfsim/internal/sweep/fx): time values and host files that never
// consult the wall clock, the environment or math/rand.
package fx

import (
	"os"
	"time"
)

func Elapsed(start, end time.Time) time.Duration { return end.Sub(start) }

func Epoch(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func Budget(d time.Duration) time.Duration { return 2*d + time.Second }

func Spec(path string) ([]byte, error) { return os.ReadFile(path) }
