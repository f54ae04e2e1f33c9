// Fixture for the kernelclock rule on coroutines: iter.Pull and
// iter.Pull2 start a coroutine, which is raw concurrency just like a go
// statement, so a model package may not call them. Iterator types and
// range-over-func stay plain sequential code.
package kernelclock_coro

import "iter"

func pull(seq iter.Seq[int]) int { // ok: an iterator type is not a coroutine
	next, stop := iter.Pull(seq) // want "iter.Pull in a model package"
	defer stop()
	v, _ := next()
	return v
}

func pull2(seq iter.Seq2[int, int]) int {
	next, stop := iter.Pull2(seq) // want "iter.Pull2 in a model package"
	defer stop()
	k, _, _ := next()
	return k
}
