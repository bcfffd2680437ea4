package flow

import "fmt"

// ArgumentError reports an invalid argument passed to a flow API entry
// point (Transfer, Batch.Add, AcquireCap, NewResource,
// SetResourceCapacity). The flow API is used from inside simulation
// processes where there is no error-return channel, so boundary
// validation panics with a typed *ArgumentError naming the call and the
// offending argument — callers that want to translate it (tests, fuzzers)
// can recover and type-assert.
type ArgumentError struct {
	Call string // the API entry point, e.g. "Batch.Add"
	Arg  string // the argument at fault, e.g. "size"
	Msg  string // description including the offending value
}

// Error implements error.
func (e *ArgumentError) Error() string {
	return fmt.Sprintf("flow: %s: invalid %s: %s", e.Call, e.Arg, e.Msg)
}

// badArg builds the panic value for a rejected argument.
func badArg(call, arg, format string, args ...interface{}) *ArgumentError {
	return &ArgumentError{Call: call, Arg: arg, Msg: fmt.Sprintf(format, args...)}
}
