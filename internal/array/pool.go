package array

import "sync"

// Wire-buffer pool for the pack/exchange paths. Array assignment and
// streaming pack every moved byte into short-lived []byte buffers; at
// steady state (a checkpoint every few minutes, a shadow exchange every
// iteration) the same handful of sizes recurs, so recycling them keeps
// the redistribution loop allocation-free. Buffers are handed to the
// message transport, which never retains them past Send, so a buffer is
// safe to recycle as soon as the collective that carried it returns.
var bufPool sync.Pool

// getBuf returns a length-n byte buffer, reusing a pooled one when its
// capacity suffices. Undersized pooled buffers are dropped for the
// garbage collector rather than returned, so the pool converges on the
// largest working-set size.
func getBuf(n int) []byte {
	if p, ok := bufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// putBuf recycles a buffer obtained from getBuf. Buffers received from
// the transport are not recycled: it allocates every one, so pooling
// them would grow the pool by an operation's receive volume each time,
// and a sync.Pool keeps everything put since the last collection
// reachable — live heap at every GC, more of it the faster operations
// repeat. Returning only what getBuf handed out keeps the pool at the
// working set.
func putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
