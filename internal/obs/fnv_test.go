package obs

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"
)

// TestMixerIsFNV1a holds the shared mixer to the standard library's
// FNV-1a: a fold of uint64s (little-endian), strings and byte slices
// equals New64a over the same bytes.
func TestMixerIsFNV1a(t *testing.T) {
	f := func(vs []uint64, ss []string) bool {
		ref := fnv.New64a()
		h := FNVOffset
		var le [8]byte
		for i := 0; i < len(vs) || i < len(ss); i++ {
			if i < len(vs) {
				binary.LittleEndian.PutUint64(le[:], vs[i])
				ref.Write(le[:])
				h = Mix64(h, vs[i])
			}
			if i < len(ss) {
				ref.Write([]byte(ss[i]))
				if i%2 == 0 {
					h = MixBytes(h, ss[i])
				} else {
					h = MixBytes(h, []byte(ss[i]))
				}
			}
		}
		return h == ref.Sum64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := MixBytes(FNVOffset, ""); got != fnv.New64a().Sum64() {
		t.Fatalf("empty fold = %#x, want the offset basis", got)
	}
}
