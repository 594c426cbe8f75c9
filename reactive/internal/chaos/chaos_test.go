package chaos

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestScheduleDeterministic pins the repro-artifact guarantee: one seed,
// byte-identical schedules, across both repeated derivation and a
// JSON round trip.
func TestScheduleDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15, 1 << 63} {
		a := NewSchedule(seed, Catalog())
		b := NewSchedule(seed, Catalog())
		ab, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("seed %#x: two derivations differ:\n%s\n----\n%s", seed, ab, bb)
		}
		dec, err := DecodeSchedule(ab)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := dec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, rb) {
			t.Fatalf("seed %#x: JSON round trip not identity", seed)
		}
	}
}

func TestSchedulesDifferAcrossSeeds(t *testing.T) {
	a, _ := NewSchedule(1, Catalog()).Encode()
	b, _ := NewSchedule(2, Catalog()).Encode()
	if bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestScheduleWithinBounds: every generated rule respects the package
// bounds, and clamp is the identity on generated rules.
func TestScheduleWithinBounds(t *testing.T) {
	s := NewSchedule(42, Catalog())
	if len(s.Rules) != len(Catalog()) {
		t.Fatalf("%d rules for %d points", len(s.Rules), len(Catalog()))
	}
	for _, r := range s.Rules {
		if r != r.clamp() {
			t.Errorf("rule %+v not within bounds (clamp gives %+v)", r, r.clamp())
		}
		if r.Every < 1 || r.Every > maxEvery || r.Phase >= r.Every {
			t.Errorf("rule %+v: bad firing period", r)
		}
	}
}

func TestClampBoundsHandEditedRules(t *testing.T) {
	r := Rule{Point: "x", Op: OpSleep, Every: 0, Phase: 99, Arg: 1 << 30}.clamp()
	if r.Arg != maxSleepUs || r.Every != 1 || r.Phase != 0 {
		t.Fatalf("clamp left %+v out of bounds", r)
	}
	r = Rule{Point: "x", Op: OpSpin, Every: 1 << 20, Phase: 7, Arg: 0}.clamp()
	if r.Arg != 1 || r.Every != maxEvery || r.Phase != 7%maxEvery {
		t.Fatalf("clamp left %+v out of bounds", r)
	}
}

// hookCall matches chaos.Point("...") / chaos.PinnedPoint("...") calls
// in package reactive's sources.
var hookCall = regexp.MustCompile(`chaos\.(?:Pinned)?Point\("([^"]+)"\)`)

// TestCatalogMatchesInstrumentation keeps the catalog in lockstep with
// the hook calls actually compiled into the tree: every id used at an
// instrumentation site must be cataloged, and every cataloged id must
// appear at a site. The scan covers everything under reactive/ (the
// primitives, the epoch kernel, waitq) — the only packages allowed to
// import this one.
func TestCatalogMatchesInstrumentation(t *testing.T) {
	root := filepath.FromSlash("../..") // reactive/
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range hookCall.FindAllSubmatch(src, -1) {
			used[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cataloged := map[string]bool{}
	for _, id := range Catalog() {
		cataloged[id] = true
	}
	for id := range used {
		if !cataloged[id] {
			t.Errorf("instrumentation uses %q but the catalog does not list it", id)
		}
	}
	for id := range cataloged {
		if !used[id] {
			t.Errorf("catalog lists %q but no instrumentation site uses it", id)
		}
	}
	if len(used) == 0 {
		t.Fatal("no instrumentation sites found under reactive/ — scan broken?")
	}
}

func TestCatalogSortedAndUnique(t *testing.T) {
	c := Catalog()
	if !sort.StringsAreSorted(c) {
		t.Fatal("catalog not sorted")
	}
	for i := 1; i < len(c); i++ {
		if c[i] == c[i-1] {
			t.Fatalf("duplicate catalog entry %q", c[i])
		}
	}
}
