// Package fx is a norawrand fixture. The rule covers all module code,
// so it is analyzed both as a simulation package
// (ec2wfsim/internal/wms/fx) and as a host-side one
// (ec2wfsim/internal/harness/fx).
package fx

import (
	"math/rand" // want `import of math/rand in module code`
	"os"
	"time"
)

func clock() time.Duration {
	t := time.Now()          // want `call to time\.Now in module code`
	u := time.Until(t)       // want `call to time\.Until`
	return time.Since(t) + u // want `call to time\.Since`
}

func entropy() float64 {
	return rand.Float64()
}

func env() (string, bool) {
	_ = os.Getenv("EC2WFSIM_DEBUG") // want `call to os\.Getenv`
	return os.LookupEnv("HOME")     // want `call to os\.LookupEnv`
}

func host() string {
	h, _ := os.Hostname() // want `call to os\.Hostname`
	return h
}

// Durations and time arithmetic that never read the wall clock are fine.
func double(d time.Duration) time.Duration { return 2 * d }

func suppressed() time.Time {
	//wfvet:ignore norawrand one-shot CLI banner timestamp, never feeds simulation state
	return time.Now()
}

func reasonlessIgnoreSuppressesNothing() time.Time {
	//wfvet:ignore norawrand
	return time.Now() // want `call to time\.Now`
}
