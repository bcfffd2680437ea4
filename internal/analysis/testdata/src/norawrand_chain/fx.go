// Package fx is the norawrand call-chain fixture (analyzed as
// ec2wfsim/internal/disk/fx): wall-clock and env reads hidden behind
// module-internal helpers. Each read is reported once, at the helper
// that makes it; the callers above it carry no finding of their own.
package fx

import (
	"os"
	"time"
)

func stampImpl() int64 { return time.Now().UnixNano() } // want `call to time\.Now in module code`

func hostStamp() int64 { return stampImpl() }

func recordEvent() int64 { return hostStamp() }

func configRoot() string { return os.Getenv("WF_ROOT") } // want `call to os\.Getenv in module code`

func mountRoot() string { return configRoot() }

func bootBanner() int64 {
	//wfvet:ignore norawrand boot-time banner stamp, emitted before the event loop starts
	return time.Now().Unix()
}
