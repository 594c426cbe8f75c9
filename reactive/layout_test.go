package reactive

import (
	"reflect"
	"testing"
	"unsafe"

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
		{"Mutex", unsafe.Sizeof(Mutex{}), 192, 192},
		{"RWMutex", unsafe.Sizeof(RWMutex{}), 480, 480},
		{"FetchOp", unsafe.Sizeof(FetchOp{}), 288, 288},
		{"Map[uint64,uint64]", unsafe.Sizeof(Map[uint64, uint64]{}), 528, 576},
	} {
		if c.got != c.wantSize || sizeClass(c.got) != c.wantClass {
			t.Errorf("%s is %d bytes in size class %d, want %d bytes in class %d",
				c.name, c.got, sizeClass(c.got), c.wantSize, c.wantClass)
		}
	}
	// Every primitive embeds a modal.Engine, so a change to the engine
	// moves all four sizes above; word, the mode word every operation
	// loads, leads it.
	if got, off := unsafe.Sizeof(modal.Engine{}), fieldOffset[modal.Engine](t, "word"); got != 104 || off != 0 {
		t.Errorf("modal.Engine is %d bytes with word at offset %d, want 104 bytes with word at 0", got, off)
	}
}

// TestRWMutexHotWordsOffQueueLines: every read loads readerCount (the
// centralized protocol's CAS word), reng's mode word (the registration
// dispatch) or the epoch kernel's gate, while the reader queue's lock and
// the writer mutex's queue lock are stored to by parking readers and
// writers and by every grant. At least 64 bytes between two naturally
// aligned words puts them on different 64-byte lines (amd64's and
// arm64's) whatever the lock's alignment in the heap.
func TestRWMutexHotWordsOffQueueLines(t *testing.T) {
	const line = 64
	var rw RWMutex
	base := uintptr(unsafe.Pointer(&rw))
	at := func(p unsafe.Pointer) uintptr { return uintptr(p) - base }
	hot := map[string]uintptr{
		"readerCount": at(unsafe.Pointer(&rw.readerCount)),
		"reng.word":   at(unsafe.Pointer(&rw.reng)) + fieldOffset[modal.Engine](t, "word"),
		"ek.gate":     at(unsafe.Pointer(&rw.ek)) + fieldOffset[epoch.Kernel](t, "gate"),
	}
	locks := map[string]uintptr{
		"rq.lock":  at(unsafe.Pointer(&rw.rq)) + fieldOffset[waitq.Queue](t, "lock"),
		"w.q.lock": at(unsafe.Pointer(&rw.w.q)) + fieldOffset[waitq.Queue](t, "lock"),
	}
	for h, ho := range hot {
		for l, lo := range locks {
			if d := max(ho, lo) - min(ho, lo); d < line {
				t.Errorf("%s (offset %d) and %s (offset %d) are %d bytes apart, want >= %d", h, ho, l, lo, d, line)
			}
		}
	}
}
