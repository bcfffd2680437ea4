// Package fx is the norawrand handler fixture (analyzed as
// ec2wfsim/internal/report/fx, outside the simulation packages):
// function values scheduled onto the sim engine whose bodies read the
// wall clock or the environment. Handlers run under the deterministic
// clock no matter where they were written, and the read is reported
// wherever it sits: in the closure or in the helper it calls.
package fx

import (
	"os"
	"time"

	"ec2wfsim/internal/sim"
)

func hostNow() int64 { return time.Now().UnixNano() } // want `call to time\.Now in module code`

func readRegion() string { return os.Getenv("WF_REGION") } // want `call to os\.Getenv in module code`

func tick() { _ = time.Now() } // want `call to time\.Now in module code`

func safe() {}

func scheduleAll(e *sim.Engine) {
	e.At(5, tick)
	e.After(1, func() {
		_ = time.Since(time.Unix(0, hostNow())) // want `call to time\.Since in module code`
	})
	e.At(2, func() {
		_ = readRegion()
	})
	e.At(3, safe)
}
