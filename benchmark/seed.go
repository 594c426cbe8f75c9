package main

import (
	"encoding/binary"
	"hash/fnv"
)

// Every input the library sees is generated here from -seed: the
// per-goroutine op streams of the primitive cells, the per-client request
// streams of the service phase, and the simulator's base seed. The library
// itself receives only these generated inputs.

// rng is splitmix64: tiny, seedable, and good enough to draw op mixes.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// derive gives the stream named label its own generator, so adding a
// stream never shifts another's draws.
func derive(seed uint64, label string, idx int) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(idx))
	h.Write(b[:])
	r := &rng{s: seed ^ h.Sum64()}
	r.next()
	return r
}

// An op is one pre-drawn operation: the kind in the top byte, an argument
// (key, delta, operand) in the low 24 bits. Streams are cycled, so their
// length only has to exceed the mixes' periods.
const (
	streamLen = 4096
	argMask   = 1<<24 - 1

	opRead  = 0 // RLock / Add / Apply / Get
	opWrite = 1 // Lock / Put
	opAux   = 2 // Load / Value / Delete
)

func mkOp(kind, arg uint32) uint32 { return kind<<24 | arg&argMask }
func opKind(op uint32) uint32      { return op >> 24 }
func opArg(op uint32) uint32       { return op & argMask }

// mix is an op mix in parts per thousand; the remainder is opRead.
type mix struct {
	writePerMille int
	auxPerMille   int
}

// genStreams draws one op stream per goroutine for the primitive named
// label.
func genStreams(seed uint64, label string, goroutines int, m mix) [][]uint32 {
	out := make([][]uint32, goroutines)
	for g := range out {
		r := derive(seed, label, g)
		s := make([]uint32, streamLen)
		for i := range s {
			kind := uint32(opRead)
			switch p := r.intn(1000); {
			case p < m.writePerMille:
				kind = opWrite
			case p < m.writePerMille+m.auxPerMille:
				kind = opAux
			}
			s[i] = mkOp(kind, uint32(r.next()))
		}
		out[g] = s
	}
	return out
}

// streamDigest fingerprints a set of streams (the seed-discipline test
// pins it).
func streamDigest(streams [][]uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, s := range streams {
		for _, op := range s {
			binary.LittleEndian.PutUint32(b[:], op)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
