package obs

// FNV-1a is the one hash behind every fingerprint in the tree: the
// tracer's event stream, Snapshot.Fingerprint, and the folds that digest
// whole runs (chaos). Folds start from FNVOffset.

// FNVOffset is the FNV-1a 64-bit offset basis.
const FNVOffset uint64 = 14695981039346656037

const fnvPrime = 1099511628211

// Mix64 folds v into the hash h as eight little-endian bytes.
func Mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// MixBytes folds the bytes of s into the hash h.
func MixBytes[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
