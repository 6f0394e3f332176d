package registry

import (
	"fmt"
	"sync"
	"testing"
)

func TestSetGetDelete(t *testing.T) {
	r := New()
	r.Set("/a", []byte("1"))
	data, ok := r.Get("/a")
	if !ok || string(data) != "1" {
		t.Fatalf("get = %q %v", data, ok)
	}
	r.Set("/a", []byte("2"))
	if data, ok := r.Get("/a"); !ok || string(data) != "2" {
		t.Fatalf("get after replace = %q %v", data, ok)
	}
	r.Delete("/a")
	if _, ok := r.Get("/a"); ok {
		t.Fatal("deleted node still present")
	}
	r.Delete("/a") // idempotent
}

func TestGetReturnsCopy(t *testing.T) {
	r := New()
	r.Set("/a", []byte("abc"))
	data, _ := r.Get("/a")
	data[0] = 'X'
	data2, _ := r.Get("/a")
	if string(data2) != "abc" {
		t.Fatal("Get aliases internal buffer")
	}
}

func TestChildrenSorted(t *testing.T) {
	r := New()
	r.Set("/ring/2", nil)
	r.Set("/ring/1", nil)
	r.Set("/other/x", nil)
	kids := r.Children("/ring/")
	if len(kids) != 2 || kids[0] != "/ring/1" || kids[1] != "/ring/2" {
		t.Fatalf("children = %v", kids)
	}
}

func TestEphemeralDeletedOnSessionClose(t *testing.T) {
	r := New()
	s := r.NewSession()
	if !s.CreateEphemeral("/live/n1", []byte("x")) {
		t.Fatal("create ephemeral failed")
	}
	s.Close()
	if _, ok := r.Get("/live/n1"); ok {
		t.Fatal("ephemeral survived session close")
	}
	// Closed session cannot create.
	if s.CreateEphemeral("/live/n2", nil) {
		t.Fatal("create on closed session succeeded")
	}
	s.Close() // idempotent
}

func TestEphemeralNotDeletedIfReplaced(t *testing.T) {
	r := New()
	s1 := r.NewSession()
	s1.CreateEphemeral("/n", []byte("a"))
	r.Delete("/n")
	// Another owner takes the path.
	s2 := r.NewSession()
	s2.CreateEphemeral("/n", []byte("b"))
	s1.Close() // must not delete s2's node
	if _, ok := r.Get("/n"); !ok {
		t.Fatal("closing old session deleted new owner's node")
	}
}

func TestElection(t *testing.T) {
	r := New()
	e := r.NewElection("/coord/ring1")
	if _, ok := e.Leader(); ok {
		t.Fatal("leader before any candidate")
	}
	s1 := r.NewSession()
	s2 := r.NewSession()
	e.Enroll(s1, "node-1")
	e.Enroll(s2, "node-2")
	leader, ok := e.Leader()
	if !ok || leader != "node-1" {
		t.Fatalf("leader = %q %v", leader, ok)
	}
	// First candidate's session expires: leadership moves.
	s1.Close()
	leader, ok = e.Leader()
	if !ok || leader != "node-2" {
		t.Fatalf("leader after failover = %q %v", leader, ok)
	}
}

func TestElectionOrderIsNumeric(t *testing.T) {
	// With enough enrollments, lexicographic ordering of unpadded numbers
	// would break; seqString must zero-pad.
	r := New()
	e := r.NewElection("/e")
	sessions := make([]*Session, 0, 12)
	for i := 0; i < 12; i++ {
		s := r.NewSession()
		sessions = append(sessions, s)
		e.Enroll(s, fmt.Sprintf("node-%d", i))
	}
	leader, _ := e.Leader()
	if leader != "node-0" {
		t.Fatalf("leader = %q, want node-0", leader)
	}
	for _, s := range sessions[:11] {
		s.Close()
	}
	leader, _ = e.Leader()
	if leader != "node-11" {
		t.Fatalf("leader = %q, want node-11", leader)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("/n/%d", g)
				r.Set(path, []byte{byte(i)})
				r.Get(path)
				r.Children("/n/")
			}
		}(g)
	}
	wg.Wait()
	if len(r.Children("/n/")) != 8 {
		t.Fatalf("children = %v", r.Children("/n/"))
	}
}
