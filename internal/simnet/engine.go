package simnet

// Engine selects the round-execution strategy behind Sim.Run. Both engines
// honor the same Program/Context contract and produce bit-identical
// statistics, inbox contents and inbox order (the engine-parity property
// tests in internal/protocol enforce this); they differ only in cost.
type Engine uint8

const (
	// EngineParallel, the zero value, is the production engine:
	// double-buffered mailbox arenas, a jitter wheel, and chunk-parallel
	// stepping with deterministic send-queue merging.
	EngineParallel Engine = iota
	// EngineSerial is the reference engine the parity tests check the
	// parallel one against: one node at a time, map-buffered pending
	// deliveries.
	EngineSerial
)

// String names the engine for stats and trace attributes.
func (e Engine) String() string {
	switch e {
	case EngineParallel:
		return "parallel"
	case EngineSerial:
		return "serial"
	default:
		return "invalid"
	}
}
