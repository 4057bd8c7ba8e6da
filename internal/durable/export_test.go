package durable

// SetCrashHook installs fn in the WAL's worst crash window: after the
// pending buffer has been written to the store, before it is fsynced.
// Crash-capture tests clone the store there to model a process that died
// at the exact commit boundary. Install before any operations run; the
// hook is called serially (one commit leader at a time).
func (q *Queue) SetCrashHook(fn func()) { q.w.crashHook = fn }

// SetSnapHook installs fn at the concurrent snapshot's phase boundaries
// (SnapBegin, SnapChunk, SnapPreManifest, SnapPostManifest). Crash-
// capture tests clone the store at each phase to prove recovery works
// from every intermediate state; the stall test parks a snapshot at
// SnapPreManifest to prove producers keep running. Install before any
// operations run; snapshots are serialized, so the hook never runs
// concurrently with itself.
func (q *Queue) SetSnapHook(fn func(SnapPhase)) { q.snapHook = fn }

// DrainSnapshots blocks until every background snapshot spawned so far
// has finished. Call only after operations have stopped (a WaitGroup
// must not see new Adds concurrent with Wait) — tests use it to quiesce
// before asserting on store contents or replaying a live store.
func (q *Queue) DrainSnapshots() { q.snapWG.Wait() }
