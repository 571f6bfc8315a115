// Clean twins: every ownership shape the codebase actually uses, which
// framepool must accept without a diagnostic.
package framepool

import "gesturecep/internal/wire"

func okStraightLine() {
	buf := wire.GetFrameBuf(64)
	buf[0] = 1
	wire.PutFrameBuf(buf)
}

func okDeferred() byte {
	buf := wire.GetFrameBuf(64)
	defer wire.PutFrameBuf(buf)
	buf[0] = 1
	return buf[0]
}

// The FlushBatch shape: enqueue/ProxyBatchOwned own the buffer on
// success; on error the caller releases it.
func okConditionalTransfer(h uint32) error {
	buf := wire.GetFrameBuf(128)
	if _, err := cl.ProxyBatchOwned(h, buf); err != nil {
		wire.PutFrameBuf(buf)
		return err
	}
	return nil
}

// Same contract with the polarity flipped.
func okConditionalTransferEq(h uint32) error {
	buf := wire.GetFrameBuf(128)
	_, err := cl.ProxyBatchOwned(h, buf)
	if err == nil {
		return nil
	}
	wire.PutFrameBuf(buf)
	return err
}

// The gateway's Session.Batch shape: take the reader's buffer, retry the
// conditional transfer on it, release it on every give-up path.
func okOwnRetry(b wire.RawBatch, h uint32) error {
	payload := b.Own()
	for attempt := 1; ; attempt++ {
		if _, err := cl.ProxyBatchOwned(h, payload); err == nil {
			return nil
		}
		if attempt >= 3 {
			wire.PutFrameBuf(payload)
			return errGiveUp
		}
	}
}

// A session that only reads the payload never owns it: nothing to release.
func okBorrow(b wire.RawBatch) int {
	return len(b.Payload)
}

// Returning the buffer transfers ownership to the caller.
func okReturnTransfer() []byte {
	buf := wire.GetFrameBuf(8)
	buf[0] = 1
	return buf
}

// Sending the buffer away transfers ownership to the consumer.
func okChannelTransfer(sink chan<- []byte) {
	buf := wire.GetFrameBuf(8)
	sink <- buf
}

// A fresh buffer per iteration, released before the scope closes.
func okPerIteration(n int) {
	for i := 0; i < n; i++ {
		buf := wire.GetFrameBuf(16)
		buf[0] = byte(i)
		wire.PutFrameBuf(buf)
	}
}

// Safe uses — len, cap, copy, indexing, nil comparison — do not end
// tracking, so the release afterwards still counts.
func okSafeUses(src []byte) int {
	buf := wire.GetFrameBuf(len(src))
	n := copy(buf, src)
	if buf != nil && len(buf) > 0 {
		n += int(buf[0])
	}
	wire.PutFrameBuf(buf)
	return n
}
