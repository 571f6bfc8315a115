// Deliberate violations of the frame-pool ownership contract. Each
// // want comment pins the diagnostic the framepool analyzer must emit.
package framepool

import "gesturecep/internal/wire"

var cl *wire.Client

var errGiveUp error

// The buffer never reaches PutFrameBuf or a transfer.
func leak() {
	buf := wire.GetFrameBuf(64)
	buf[0] = 1
} // want `pooled frame buffer buf .* is neither released with PutFrameBuf nor ownership-transferred`

// Released only when flag is true: leaks on the other path.
func leakOnSomePath(flag bool) {
	buf := wire.GetFrameBuf(64)
	buf[0] = 1
	if flag {
		wire.PutFrameBuf(buf)
	}
} // want `pooled frame buffer buf .* is released on some paths but leaks on others`

func useAfterPut() {
	buf := wire.GetFrameBuf(32)
	wire.PutFrameBuf(buf)
	buf[0] = 1 // want `use of pooled frame buffer buf after PutFrameBuf`
}

func doublePut() {
	buf := wire.GetFrameBuf(32)
	wire.PutFrameBuf(buf)
	wire.PutFrameBuf(buf) // want `pooled frame buffer buf released twice`
}

// Parameters are tracked too once they pass through PutFrameBuf.
func putParam(payload []byte) byte {
	wire.PutFrameBuf(payload)
	return payload[0] // want `use of pooled frame buffer payload after PutFrameBuf`
}

// ProxyBatchOwned only takes ownership on success; the error path must
// release the buffer itself, and here it does not.
func transferErrLeak(h uint32) error {
	buf := wire.GetFrameBuf(128)
	if _, err := cl.ProxyBatchOwned(h, buf); err != nil {
		return err // want `pooled frame buffer buf .* is neither released with PutFrameBuf nor ownership-transferred`
	}
	return nil
}

// A session that takes the reader's buffer owns it like a fresh one: the
// give-up path of a forward loop must release it, and here it does not.
func ownLeak(b wire.RawBatch, h uint32) error {
	payload := b.Own()
	for attempt := 1; ; attempt++ {
		if _, err := cl.ProxyBatchOwned(h, payload); err == nil {
			return nil
		}
		if attempt >= 3 {
			return errGiveUp // want `pooled frame buffer payload .* is neither released with PutFrameBuf nor ownership-transferred`
		}
	}
}

func ownDiscard(b wire.RawBatch) {
	b.Own() // want `pooled frame buffer discarded`
}

func discard() {
	wire.GetFrameBuf(16) // want `pooled frame buffer discarded`
}

func overwrite() {
	buf := wire.GetFrameBuf(16)
	buf = wire.GetFrameBuf(32) // want `pooled frame buffer buf .* overwritten before release`
	wire.PutFrameBuf(buf)
}

func doubleDeferredPut() {
	buf := wire.GetFrameBuf(8)
	defer wire.PutFrameBuf(buf)
	buf[0] = 1
	wire.PutFrameBuf(buf) // want `released twice \(a deferred PutFrameBuf is already registered\)`
}
