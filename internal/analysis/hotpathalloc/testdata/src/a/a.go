// Package a exercises the hotpathalloc analyzer: allocation-introducing
// constructs inside //xssd:hotpath functions are reported; the same
// constructs in unannotated functions and the amortized reuse idioms are
// not.
package a

import "fmt"

func sinkAny(v interface{}) {}

type mod struct {
	bufs [][]byte
	name string
	n    int
}

func (m *mod) helper() int { return m.n }

// cold is unannotated: allocation is fine here.
func (m *mod) cold(n int) []byte {
	return make([]byte, n)
}

//xssd:hotpath
func (m *mod) hotMake(n int) []byte {
	return make([]byte, n) // want "make allocates on every call"
}

//xssd:hotpath
func (m *mod) hotNew() *int {
	return new(int) // want "new allocates on every call"
}

//xssd:hotpath
func (m *mod) hotFmt(n int) {
	_ = fmt.Sprintf("%d", n) // want "formats through reflection and allocates"
}

//xssd:hotpath
func (m *mod) hotClosure(n int) func() int {
	return func() int { return n } // want "closure capturing n escapes to the heap"
}

//xssd:hotpath
func (m *mod) hotBox(v int64) {
	sinkAny(v) // want "boxes the value on the heap"
}

// hotBoxPtr passes a pointer-shaped value; no box, no report.
//
//xssd:hotpath
func (m *mod) hotBoxPtr() {
	sinkAny(m)
}

//xssd:hotpath
func (m *mod) hotLiterals() {
	xs := []int{1, 2} // want "slice literal allocates on every call"
	_ = xs
	ys := map[string]int{} // want "map literal allocates on every call"
	_ = ys
	p := &mod{} // want "&composite literal heap-allocates on every call"
	_ = p
}

//xssd:hotpath
func (m *mod) hotConcat(tag string) string {
	return m.name + tag // want "string concatenation allocates"
}

//xssd:hotpath
func (m *mod) hotBind() func() int {
	return m.helper // want "bound method value helper allocates"
}

//xssd:hotpath
func (m *mod) hotGrowFromEmpty(vals []int) int {
	var acc []int
	for _, v := range vals {
		acc = append(acc, v) // want "append grows acc from empty on every call"
	}
	return len(acc)
}

//xssd:hotpath
func (m *mod) hotLitAppend(vals []int) []int {
	return append([]int{}, vals...) // want "append to a slice literal allocates on every call" "slice literal allocates on every call"
}

//xssd:hotpath
func (m *mod) hotNilCopy(b []byte) []byte {
	return append([]byte(nil), b...) // want "append to a fresh nil slice copies on every call"
}

// hotReuse is the amortized pattern: append to a pooled field whose
// backing array survives across calls; no report.
//
//xssd:hotpath
func (m *mod) hotReuse(b []byte) {
	m.bufs = append(m.bufs, b)
}

//xssd:hotpath
func (m *mod) hotConvert(b []byte, s string) (string, []byte) {
	const c = "constant"
	_ = []byte(c)
	return string(b), []byte(s) // want "converting \\[\\]byte to string copies the bytes" "converting string to \\[\\]byte copies the bytes"
}

func largest[S ~[]E, E any](s S, less func(a, b E) bool) E {
	top := s[0]
	for _, e := range s[1:] {
		if less(top, e) {
			top = e
		}
	}
	return top
}

func lessInt(a, b int) bool { return a < b }

// hotGeneric passes a slice for a type parameter: the call is instantiated
// for []int, nothing is converted to an interface; no report.
//
//xssd:hotpath
func (m *mod) hotGeneric(vals []int) int {
	return largest(vals, lessInt)
}
