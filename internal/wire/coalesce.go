package wire

import (
	"encoding/binary"
	"net"
	"sync"
)

// maxCoalescedBytes bounds the bytes a coalescer buffers before producers
// block. This is the gateway's one-hop relay of serve.Block backpressure: a
// slow backend fills the coalescer, which stalls the front-connection reader
// goroutines, which lets TCP flow control pace the remote producers.
const maxCoalescedBytes = 1 << 20

// hdrChunkSize is the arena-chunk size for frame headers queued in a
// coalescer; chunks come from (and return to) the shared frame pool.
const hdrChunkSize = 4 << 10

// coalescer serializes all frame writes of one connection through a single
// flusher goroutine. Frames enqueued by any number of producer goroutines
// (the cluster gateway's front-connection readers) while a previous flush is
// on the wire are gathered into one vectored write (writev via net.Buffers):
// N front sessions sharing a backend cost one syscall per flush cycle, not
// one per frame, and pooled payloads travel from the front reader to the
// backend socket with zero intermediate copies.
//
// Wire order is enqueue order (a single mutex), which preserves the relay's
// flush contract: a flush request enqueued after a batch is written after
// it, so the backend still processes every prior tuple before acking.
type coalescer struct {
	cl *Client

	mu    sync.Mutex
	cond  *sync.Cond
	bufs  net.Buffers // pending iovec: hdr, payload, hdr, payload, ...
	owned [][]byte    // pooled buffers (payloads + header chunks) released after the flush
	hdr   []byte      // current header arena chunk; its refs live in bufs
	queue int         // queued bytes, gates producer admission
	err   error       // first write error; poisons the coalescer
	stopd bool        // Close requested; drain then exit

	done chan struct{}
}

func newCoalescer(cl *Client) *coalescer {
	co := &coalescer{cl: cl, done: make(chan struct{})}
	co.cond = sync.NewCond(&co.mu)
	go co.flushLoop()
	return co
}

// enqueue appends one frame to the pending vectored write. When owned is
// true the payload buffer is released to the frame pool after it hits the
// socket; otherwise the payload must stay valid and untouched until then —
// freshly marshalled JSON qualifies, a caller-reused scratch buffer does
// not (copy it into a pooled buffer first). waiter, when non-nil, is
// registered for the next control reply in the same critical section, so
// reply order matches wire order even with concurrent producers. enqueue
// blocks while maxCoalescedBytes are already pending. On error, payload
// ownership stays with the caller.
func (co *coalescer) enqueue(t FrameType, payload []byte, owned bool, waiter *pendingReq) error {
	co.mu.Lock()
	for co.queue >= maxCoalescedBytes && co.err == nil && !co.stopd && !co.cl.closed.Load() {
		co.cond.Wait()
	}
	if co.err != nil || co.stopd || co.cl.closed.Load() {
		co.mu.Unlock()
		return co.cl.closedErr()
	}
	if cap(co.hdr)-len(co.hdr) < headerSize {
		// Headers live in pooled arena chunks: the chunk is referenced by
		// the iovec entries sliced from it and released with them, so a
		// steady-state flush cycle allocates nothing.
		co.hdr = GetFrameBuf(hdrChunkSize)[:0]
		co.owned = append(co.owned, co.hdr)
	}
	h := co.hdr[len(co.hdr) : len(co.hdr)+headerSize]
	co.hdr = co.hdr[:len(co.hdr)+headerSize]
	binary.BigEndian.PutUint32(h[:4], uint32(len(payload)))
	h[4] = byte(t)
	co.bufs = append(co.bufs, h)
	if len(payload) > 0 {
		co.bufs = append(co.bufs, payload)
	}
	if owned {
		co.owned = append(co.owned, payload)
	}
	co.queue += headerSize + len(payload)
	if waiter != nil {
		co.cl.pmu.Lock()
		co.cl.waiters = append(co.cl.waiters, *waiter)
		co.cl.pmu.Unlock()
	}
	co.cond.Broadcast()
	co.mu.Unlock()
	return nil
}

// flushLoop is the single writer: it swaps the pending queue out under the
// lock, writes it with one vectored write, releases the pooled buffers, and
// repeats. Frames enqueued during the unlocked write are picked up by the
// next cycle — that gap is exactly where coalescing happens.
func (co *coalescer) flushLoop() {
	defer close(co.done)
	var (
		bufs  net.Buffers
		owned [][]byte
	)
	co.mu.Lock()
	for {
		for len(co.bufs) == 0 && co.err == nil && !co.stopd {
			co.cond.Wait()
		}
		if co.err != nil || (co.stopd && len(co.bufs) == 0) {
			for _, b := range co.owned {
				PutFrameBuf(b)
			}
			co.bufs, co.owned, co.hdr, co.queue = nil, nil, nil, 0
			co.cond.Broadcast()
			co.mu.Unlock()
			return
		}
		bufs, co.bufs = co.bufs, bufs[:0]
		owned, co.owned = co.owned, owned[:0]
		co.hdr = nil
		co.queue = 0
		co.cond.Broadcast()
		co.mu.Unlock()

		nb := bufs // WriteTo consumes its receiver; keep bufs for capacity reuse
		_, err := nb.WriteTo(co.cl.c)
		for i := range owned {
			PutFrameBuf(owned[i])
			owned[i] = nil
		}
		if err != nil {
			co.cl.fail(writeSide, err)
		}
		co.mu.Lock()
		if err != nil && co.err == nil {
			co.err = err
			co.cond.Broadcast()
		}
	}
}

// poison marks the coalescer dead and wakes the flusher and all blocked
// producers, without waiting. Called from Client.fail — possibly on the
// flusher's own goroutine, so it must not block on the flusher.
func (co *coalescer) poison(err error) {
	co.mu.Lock()
	if co.err == nil {
		co.err = err
	}
	co.cond.Broadcast()
	co.mu.Unlock()
}

// stop drains pending frames (when the connection is still healthy) and
// waits for the flusher to exit. Safe to call more than once.
func (co *coalescer) stop() {
	co.mu.Lock()
	co.stopd = true
	co.cond.Broadcast()
	co.mu.Unlock()
	<-co.done
}
