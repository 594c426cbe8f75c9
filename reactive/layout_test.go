package reactive

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/reactive/internal/affinity"
	"repro/reactive/internal/epoch"
	"repro/reactive/internal/waitq"
	"repro/reactive/modal"
)

// sizeClasses is a literal copy of the runtime's small-object size
// classes (runtime/sizeclasses.go, class_to_size) from 128 to 1024 bytes:
// a heap-allocated primitive occupies the smallest class that holds it,
// so a field that pushes a type past a boundary costs the whole step.
var sizeClasses = []uintptr{128, 144, 160, 176, 192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024}

// sizeClass returns the size class a size-n allocation lands in, or 0
// outside the copied range.
func sizeClass(n uintptr) uintptr {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return 0
}

// fieldOffset returns the offset of the named field of struct type T,
// reaching the unexported fields of another package's types (a mode
// word, a gate, a queue lock) that unsafe.Offsetof cannot name.
func fieldOffset[T any](t *testing.T, name string) uintptr {
	t.Helper()
	f, ok := reflect.TypeFor[T]().FieldByName(name)
	if !ok {
		t.Fatalf("%v has no field %s", reflect.TypeFor[T](), name)
	}
	return f.Offset
}

// TestPrimitiveLayout pins each primitive's size and allocator size
// class, and the size of the modal engine they all embed, so a field
// added or reordered shows up as a test failure and a measured decision
// rather than as benchmark noise. A change that moves one of these
// numbers on purpose updates it here.
func TestPrimitiveLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name                     string
		got, wantSize, wantClass uintptr
	}{
		// 144 and 240 are not multiples of 64, so a Mutex's or FetchOp's
		// phase on a line varies; each layout is the unpadded order that
		// passes TestHotWordsOffQueueLines (Mutex: q last; FetchOp: cfg
		// between Apply's words and the sweepers'). Against the 192- and
		// 288-byte layouts around a 104-byte engine, in 6 interleaved 1 s
		// runs per side (2-vCPU amd64, go1.24), medians in ns/op of the
		// BenchmarkNative rows: Mutex/uncontended 23.7 → 22.3,
		// Mutex/contended 33.5 → 34.8, FetchOp/cas-regime 15.8 → 16.1,
		// FetchOp/sharded-regime 8.4 → 8.9, Counter/contended 8.1 → 8.8
		// (8.8 → 8.8 in a second set); each inside the older layout's
		// run-to-run range but the first Counter set, 0.02 ns above it.
		{"Mutex", unsafe.Sizeof(Mutex{}), 136, 144},
		// RWMutex and Map keep their tunables in the writer mutex's config.
		{"RWMutex", unsafe.Sizeof(RWMutex{}), 320, 320},
		{"FetchOp", unsafe.Sizeof(FetchOp{}), 232, 240},
		{"Map[uint64,uint64]", unsafe.Sizeof(Map[uint64, uint64]{}), 360, 384},
	} {
		if c.got != c.wantSize || sizeClass(c.got) != c.wantClass {
			t.Errorf("%s is %d bytes in size class %d, want %d bytes in class %d",
				c.name, c.got, sizeClass(c.got), c.wantSize, c.wantClass)
		}
	}
	// Every primitive embeds a modal.Engine, so a change to the engine
	// moves all four sizes above; word, the mode word every operation
	// loads, leads it.
	if got, off := unsafe.Sizeof(modal.Engine{}), fieldOffset[modal.Engine](t, "word"); got != 48 || off != 0 {
		t.Errorf("modal.Engine is %d bytes with word at offset %d, want 48 bytes with word at 0", got, off)
	}
}

// TestHotWordsOffQueueLines: the words a primitive's fast paths load
// sit at least a cache line from the waiter-queue locks that parking
// waiters and every grant store to. Mutex's Lock and Unlock load state
// and the engine's mode word; every RWMutex read loads readerCount (the
// centralized protocol's CAS word), reng's mode word (the registration
// dispatch) or the epoch kernel's gate, while parking readers and
// writers store to the reader queue's lock and the writer mutex's. Every
// FetchOp Apply loads base (the CAS mode's word) and the mode word, and
// every sharded one the cell array's header, while sweepers store to
// sweepLock and readers parked behind a sweep to vq's lock. Every
// epoch-mode Map Get and lock-free Put loads the engine's mode word, the
// kernel's gate and the cell table's header pointer, and every
// locked-mode operation takes the locked store's spin word, while
// writers parking on the writer lock and an inserter parked in a grace
// period store to the writer mutex's queue lock and the kernel's. At
// least 64 bytes between two naturally aligned words puts them on
// different 64-byte lines (amd64's and arm64's) whatever the
// primitive's alignment in the heap.
func TestHotWordsOffQueueLines(t *testing.T) {
	const line = 64
	engWord := fieldOffset[modal.Engine](t, "word")
	qLock := fieldOffset[waitq.Queue](t, "lock")
	kGate, kQ := fieldOffset[epoch.Kernel](t, "gate"), fieldOffset[epoch.Kernel](t, "q")
	var m Mutex
	var rw RWMutex
	var f FetchOp
	var mp Map[uint64, uint64]
	// off returns field's offset within the primitive at base.
	off := func(base, field unsafe.Pointer) uintptr { return uintptr(field) - uintptr(base) }
	mb, rb, fb, pb := unsafe.Pointer(&m), unsafe.Pointer(&rw), unsafe.Pointer(&f), unsafe.Pointer(&mp)
	for _, c := range []struct {
		name       string
		hot, locks map[string]uintptr
	}{
		{"Mutex", map[string]uintptr{
			"state":    off(mb, unsafe.Pointer(&m.state)),
			"eng.word": off(mb, unsafe.Pointer(&m.eng)) + engWord,
		}, map[string]uintptr{
			"q.lock": off(mb, unsafe.Pointer(&m.q)) + qLock,
		}},
		{"RWMutex", map[string]uintptr{
			"readerCount": off(rb, unsafe.Pointer(&rw.readerCount)),
			"reng.word":   off(rb, unsafe.Pointer(&rw.reng)) + engWord,
			"ek.gate":     off(rb, unsafe.Pointer(&rw.ek)) + kGate,
		}, map[string]uintptr{
			"rq.lock":  off(rb, unsafe.Pointer(&rw.rq)) + qLock,
			"w.q.lock": off(rb, unsafe.Pointer(&rw.w.q)) + qLock,
		}},
		// Counter is a FetchOp and inherits its layout.
		{"FetchOp", map[string]uintptr{
			"base":        off(fb, unsafe.Pointer(&f.base)),
			"eng.word":    off(fb, unsafe.Pointer(&f.eng)) + engWord,
			"cells.cells": off(fb, unsafe.Pointer(&f.cells)) + fieldOffset[affinity.Cells](t, "cells"),
			"cells.once":  off(fb, unsafe.Pointer(&f.cells)) + fieldOffset[affinity.Cells](t, "once"),
		}, map[string]uintptr{
			"sweepLock": off(fb, unsafe.Pointer(&f.sweepLock)),
			"vq.lock":   off(fb, unsafe.Pointer(&f.vq)) + qLock,
		}},
		{"Map", map[string]uintptr{
			"eng.word": off(pb, unsafe.Pointer(&mp.eng)) + engWord,
			"ek.gate":  off(pb, unsafe.Pointer(&mp.ek)) + kGate,
			"cells":    off(pb, unsafe.Pointer(&mp.cells)),
			"one.lock": off(pb, unsafe.Pointer(&mp.one.lock)),
		}, map[string]uintptr{
			"wl.q.lock": off(pb, unsafe.Pointer(&mp.wl.q)) + qLock,
			"ek.q.lock": off(pb, unsafe.Pointer(&mp.ek)) + kQ + qLock,
		}},
	} {
		for h, ho := range c.hot {
			for l, lo := range c.locks {
				if d := max(ho, lo) - min(ho, lo); d < line {
					t.Errorf("%s: %s (offset %d) and %s (offset %d) are %d bytes apart, want >= %d", c.name, h, ho, l, lo, d, line)
				}
			}
		}
	}
}
