package sim

// call is a func as an Action: the tests' shorthand for an event whose only
// job is a side effect they observe.
type call func()

func (f call) Run() { f() }
