// Package hotpathdata seeds allocation violations inside
// //smoothvet:noalloc functions, next to the sanctioned idioms.
package hotpathdata

import "fmt"

type buf struct {
	scratch []byte
	out     []int
}

func work() {}

func consume(v any) {}

func take(p *buf) {}

// good uses only the sanctioned steady-state idioms.
//
//smoothvet:noalloc
func good(b *buf, n int, xs []int) []int {
	if cap(b.scratch) < n {
		b.scratch = make([]byte, n) // ok: cap-guarded amortized growth
	}
	b.out = b.out[:0]
	for _, x := range xs {
		b.out = append(b.out, x) // ok: self-append
	}
	take(&buf{}) // ok: composite address as a direct call argument
	return b.out
}

// appendStyle is the append-style encoder shape.
//
//smoothvet:noalloc
func appendStyle(dst []byte, v byte) []byte {
	dst = append(dst, v)
	return append(dst, v) // ok: continues the caller's buffer
}

// errPath may allocate on the failure exit.
//
//smoothvet:noalloc
func errPath(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("bad n %d", n) // ok: error exit is exempt
	}
	return nil, nil
}

//smoothvet:noalloc
func bad(b *buf, xs []int, s string) {
	f := func() {} // want `func literal allocates a closure`
	f()
	go work()     // want `go statement allocates a goroutine`
	p := new(buf) // want `new allocates`
	_ = p
	m := make(map[int]int) // want `make allocates on every call`
	_ = m
	lit := []int{1, 2, 3} // want `slice literal allocates`
	_ = lit
	y := append(xs, 1) // want `append result assigned to a different variable`
	_ = y
	bs := []byte(s) // want `string/byte-slice conversion copies`
	_ = bs
	var i any
	i = 7 // want `boxes the value and allocates`
	_ = i
	consume(42) // want `boxes the value and allocates`
	d := &buf{} // want `address of composite literal escapes`
	_ = d
}

// unmarked is outside the contract: nothing is flagged.
func unmarked() []int {
	return []int{1, 2, 3} // ok: not a noalloc function
}

// hot reaches helper through the call graph: helper's closures and
// goroutine spawns are on the hot path even without its own marker.
//
//smoothvet:noalloc
func hot(n int) int {
	return helper(n)
}

// helper is unmarked but reachable from hot; only the unconditional
// allocators are flagged here.
func helper(n int) int {
	f := func() int { return n } // want `func literal allocates a closure on a //smoothvet:noalloc path \(reachable from hot\)`
	go work()                    // want `go statement allocates a goroutine on a //smoothvet:noalloc path \(reachable from hot\)`
	m := make([]int, n)          // ok: reachable-but-unmarked functions get only the closure/go rules
	return f() + len(m)
}

// coldHelper is not reachable from any noalloc root: closures are fine.
func coldHelper() func() {
	return func() {} // ok: off the hot path
}

// ring is a generic reactor-style core: its noalloc methods are checked
// on the generic declaration, whatever it is instantiated with.
type ring[S comparable] struct {
	live []S
	sink any
}

// admit keeps to the sanctioned idioms: self-append, passing the type
// parameter through to a parameter of the same type.
//
//smoothvet:noalloc
func (r *ring[S]) admit(s S) {
	r.live = append(r.live, s)
	r.place(s)
}

func (r *ring[S]) place(s S) {}

// leak converts a type-parameter value to an interface, which boxes it
// for any non-pointer instantiation, and spawns work behind an unmarked
// helper reached through the generic receiver.
//
//smoothvet:noalloc
func (r *ring[S]) leak(s S) {
	r.sink = s // want `boxes the value and allocates`
	consume(s) // want `boxes the value and allocates`
	r.spawn()
}

func (r *ring[S]) spawn() {
	go work() // want `go statement allocates a goroutine on a //smoothvet:noalloc path \(reachable from leak\)`
}
