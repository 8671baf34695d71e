package chunk

import "testing"

func TestGetRoundsUpToAPowerOfTwo(t *testing.T) {
	var p Pool[int]
	for n, want := range map[int]int{1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 300: 512} {
		if s := p.Get(n); len(s) != 0 || cap(s) != want {
			t.Errorf("Get(%d) = len %d cap %d, want len 0 cap %d", n, len(s), cap(s), want)
		}
	}
	if s := p.Get(0); s != nil {
		t.Errorf("Get(0) = %v, want nil", s)
	}
}

func TestCarvedSlicesDoNotOverlap(t *testing.T) {
	var p Pool[int]
	a := p.Append(p.Get(2), 1, 2)
	b := p.Append(p.Get(2), 3, 4)
	a = append(a, 5) // beyond a's capacity: must not write into b
	if b[0] != 3 || b[1] != 4 || len(a) != 3 {
		t.Fatalf("a = %v, b = %v", a, b)
	}
}

func TestPutRecyclesByClassAndClears(t *testing.T) {
	var p Pool[*int]
	v := 7
	s := p.Append(p.Get(4), &v, &v, &v)
	p.Put(s)
	r := p.Get(3)
	if &r[:1][0] != &s[:1][0] {
		t.Fatal("Get did not reuse the slice Put handed back")
	}
	for i, e := range r[:cap(r)] {
		if e != nil {
			t.Fatalf("recycled element %d still points at %v", i, e)
		}
	}
	// A capacity that is no power of two files under the class below it.
	p.Put(make([]*int, 0, 6))
	if g := p.Get(4); cap(g) != 6 {
		t.Fatalf("Get(4) after Put(cap 6) has cap %d, want the recycled 6", cap(g))
	}
}

func TestAppendAndFitMoveBetweenClasses(t *testing.T) {
	var p Pool[int]
	s := p.Get(1)
	for i := 0; i < 100; i++ {
		s = p.Append(s, i)
	}
	for i, v := range s {
		if v != i {
			t.Fatalf("s[%d] = %d after growth", i, v)
		}
	}
	if f := p.Fit(s, 50); cap(f) != cap(s) || len(f) != 0 {
		t.Fatalf("Fit(cap %d, 50) = len %d cap %d, want the same slice emptied", cap(s), len(f), cap(f))
	}
	if f := p.Fit(s, 500); cap(f) != 512 {
		t.Fatalf("Fit(cap %d, 500) has cap %d, want 512", cap(s), cap(f))
	}
}

func TestFreedObjectsComeBackFirst(t *testing.T) {
	var p Pool[int]
	a, b := p.New(), p.New()
	if a == b {
		t.Fatal("New returned one object twice")
	}
	*a = 7
	p.Free(a)
	if c := p.New(); c != a || *c != 7 {
		t.Fatalf("New after Free(a) = %p holding %d, want a holding 7", c, *c)
	}
	if c := p.New(); c == a || c == b || *c != 0 {
		t.Fatal("New with nothing freed did not carve a zero object")
	}
}

func TestWarmPoolAllocatesNothing(t *testing.T) {
	var p Pool[int]
	vs := []int{1, 2, 3, 4, 5}
	cycle := func() {
		s := p.Get(2)
		for i := 0; i < 10; i++ {
			s = p.Append(s, vs...)
		}
		s = p.Fit(s, 3)
		p.Put(s)
		p.Free(p.New())
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm cycle allocated %.1f times", n)
	}
}
