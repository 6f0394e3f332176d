package mrp_test

import (
	"fmt"
	"testing"
	"time"

	"mrp"
)

// TestPublicAPIAtomicMulticast exercises the facade exactly as the README
// quick start does: three nodes, two groups, a merged learner.
func TestPublicAPIAtomicMulticast(t *testing.T) {
	net := mrp.NewSimNetwork(mrp.WithUniformLatency(20 * time.Microsecond))
	defer net.Close()

	peersFor := func() []mrp.Peer {
		peers := make([]mrp.Peer, 3)
		for i := range peers {
			peers[i] = mrp.Peer{
				ID:    mrp.NodeID(i + 1),
				Addr:  mrp.Addr(fmt.Sprintf("api-n%d", i)),
				Roles: mrp.RoleProposer | mrp.RoleAcceptor | mrp.RoleLearner,
			}
		}
		return peers
	}
	var nodes []*mrp.Node
	for i := 0; i < 3; i++ {
		node := mrp.NewNode(mrp.NodeID(i+1), net.Endpoint(mrp.Addr(fmt.Sprintf("api-n%d", i))))
		for _, g := range []mrp.GroupID{1, 2} {
			if _, err := node.Join(mrp.RingConfig{
				Ring:         g,
				Peers:        peersFor(),
				Coordinator:  1,
				Log:          mrp.NewMemLog(),
				SkipInterval: 5 * time.Millisecond,
				SkipRate:     1000,
				RetryTimeout: 50 * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, node)
	}

	// A learner is built before its node starts.
	p1, _ := nodes[2].Process(1)
	p2, _ := nodes[2].Process(2)
	learner := mrp.NewLearner(1, p1, p2)
	for _, node := range nodes {
		node.Start()
		defer node.Stop()
	}
	learner.Start()
	defer learner.Stop()

	if err := nodes[0].Multicast(1, []byte("to-group-1")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Multicast(2, []byte("to-group-2")); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(got) < 2 {
		select {
		case d := <-learner.Deliveries():
			if !d.Skip {
				got[string(d.Entry.Data)] = true
			}
		case <-deadline:
			t.Fatalf("delivered %v", got)
		}
	}
}

// TestPublicAPIStore exercises the service facade.
func TestPublicAPIStore(t *testing.T) {
	net := mrp.NewSimNetwork()
	defer net.Close()
	st, err := mrp.DeployStore(mrp.StoreConfig{
		Net:          net,
		Partitions:   2,
		Replicas:     3,
		StorageMode:  mrp.InMemory,
		RetryTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	cl := st.NewClient()
	defer cl.Close()
	if err := cl.Insert("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Read("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if _, err := cl.Read("missing"); err != mrp.ErrNotFound {
		t.Fatalf("err = %v", err)
	}
}

// TestPublicAPILog exercises the dLog facade.
func TestPublicAPILog(t *testing.T) {
	net := mrp.NewSimNetwork()
	defer net.Close()
	lg, err := mrp.DeployLog(mrp.LogConfig{
		Net:          net,
		Logs:         2,
		Servers:      3,
		StorageMode:  mrp.InMemory,
		DiskModel:    mrp.DiskModel{},
		SkipInterval: 5 * time.Millisecond,
		SkipRate:     1000,
		RetryTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Stop()
	cl := lg.NewClient()
	defer cl.Close()
	pos, err := cl.Append(0, []byte("entry"))
	if err != nil || pos != 0 {
		t.Fatalf("append = %d, %v", pos, err)
	}
	v, err := cl.Read(0, 0)
	if err != nil || string(v) != "entry" {
		t.Fatalf("read = %q, %v", v, err)
	}
	positions, err := cl.MultiAppend([]mrp.LogID{0, 1}, []byte("both"))
	if err != nil || len(positions) != 2 {
		t.Fatalf("multi-append = %v, %v", positions, err)
	}
}

// TestPublicAPITCP proves the facade's TCP transport interoperates with
// the protocol stack.
func TestPublicAPITCP(t *testing.T) {
	a, err := mrp.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := mrp.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Addr() == b.Addr() {
		t.Fatal("distinct endpoints share an address")
	}
}
