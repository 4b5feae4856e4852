package coest

import (
	"errors"
	"fmt"
)

// ErrOptionScope is the sentinel matched by errors.Is when an option is
// passed to a call it cannot apply to — for example WithWorkers (a
// run-level option that steers a multi-point sweep) on a single Estimate.
// Before the option-scope split these options were accepted and silently
// ignored; misuse now fails fast with a typed error.
var ErrOptionScope = errors.New("option out of scope")

// OptionScopeError reports which option was rejected by which call. It
// matches ErrOptionScope under errors.Is; unwrap with errors.As to recover
// the names.
type OptionScopeError struct {
	Option string // the option constructor, e.g. "WithWorkers"
	Call   string // the rejecting entry point, e.g. "Estimate"
}

func (e *OptionScopeError) Error() string {
	return fmt.Sprintf("coest: %s: %s is a run-level option (it applies to Sweep and Session.EstimateBatch, not to a single estimation)",
		e.Call, e.Option)
}

// Is makes errors.Is(err, ErrOptionScope) hold.
func (e *OptionScopeError) Is(target error) bool { return target == ErrOptionScope }
