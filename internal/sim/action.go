package sim

// Action is a schedulable unit of work, and the only form an event takes:
// the queue holds the interface value itself beside its (time, sequence)
// key. Hot-path components implement Run on a struct they own or pool (a
// pointer-to-struct stored in the interface does not allocate) and schedule
// it with Post/PostAfter, so scheduling allocates nothing.
//
// Events are fire-and-forget by construction: Post returns nothing, so no
// caller holds a handle on a pending event and there is nothing to cancel.
// Work that may have to be called off empties its own action instead — the
// event still fires, as a no-op, at the (time, sequence) it always had,
// which is what keeps the event count and every later tie-break where they
// were (netsim's doomed and reprieved transmissions work this way).
//
// An Action that must survive a checkpoint describes itself to the package
// that owns it (netsim's in-flight events, trafgen's sources, core's control
// timers); a restore re-arms it with RestoreAction. Anything an action
// recycles must come from a freelist owned by one scheduler — never a
// sync.Pool, whose steal-anything semantics would make reuse order depend
// on goroutine timing.
type Action interface {
	Run()
}

// funcAction carries the closure of Schedule/After. A func value is
// pointer-shaped, so converting it to an Action does not allocate. It has
// no serializable identity: a checkpoint walk reports it with a nil Act.
type funcAction func()

func (f funcAction) Run() { f() }
