package store_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"mrp/internal/storage"
	"mrp/internal/store"
	"mrp/internal/tcpnet"
	"mrp/internal/transport"
)

// freePorts reserves n distinct localhost TCP ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	var lns []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return addrs
}

// TestStoreOverRealTCP runs the full MRP-Store stack — rings, merge,
// replicas, client — over actual localhost sockets instead of the
// simulator, proving the deployment is transport-agnostic.
func TestStoreOverRealTCP(t *testing.T) {
	const partitions, replicas = 2, 3
	ports := freePorts(t, partitions*replicas)
	addrFor := func(p, r int) transport.Addr {
		return transport.Addr(ports[p*replicas+r])
	}
	d, err := store.Deploy(store.DeployConfig{
		EndpointFor: func(a transport.Addr) (transport.Endpoint, error) {
			if _, _, err := net.SplitHostPort(string(a)); err != nil {
				// Auxiliary endpoints (recovery conversations, clients)
				// are requested under symbolic names; any ephemeral port
				// serves them.
				return tcpnet.Listen("127.0.0.1:0")
			}
			return tcpnet.Listen(string(a))
		},
		AddrFor:      addrFor,
		Partitions:   partitions,
		Replicas:     replicas,
		GlobalRing:   true,
		StorageMode:  storage.InMemory,
		SkipInterval: 5 * time.Millisecond,
		SkipRate:     1000,
		RetryTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	clientEp, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := d.NewClientAt(clientEp, 42_000_001)
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if err := cl.Insert(fmt.Sprintf("tcp-%02d", i), []byte(fmt.Sprint(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	v, err := cl.Read("tcp-07")
	if err != nil || string(v) != "7" {
		t.Fatalf("read = %q, %v", v, err)
	}
	entries, err := cl.Scan("tcp-03", "tcp-06", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("scan over TCP = %d entries", len(entries))
	}
	if err := cl.Delete("tcp-00"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read("tcp-00"); err != store.ErrNotFound {
		t.Fatalf("read deleted = %v", err)
	}
}
