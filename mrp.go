// Package mrp is the public API of this Multi-Ring Paxos library — a
// reproduction of "Building global and scalable systems with Atomic
// Multicast" (Benz, Marandi, Pedone, Garbinato — MIDDLEWARE 2014).
//
// The library provides, bottom-up:
//
//   - Atomic multicast (Multi-Ring Paxos): multicast groups map to Ring
//     Paxos rings; learners subscribe to any set of groups and deliver the
//     deterministic merge of their decision streams. A node joins its
//     rings before it starts, and a deployment grows by starting new
//     replicas on new rings. See NewNode, (*Node).Join, (*Node).Multicast,
//     NewLearner.
//   - State-machine replication on top of atomic multicast: replicas,
//     retrying clients, checkpointing, coordinated log trimming, and
//     crash recovery. See NewReplica, NewClient, Recover.
//   - Two services built on SMR: MRP-Store (a partitioned, strongly
//     consistent key-value store — DeployStore) and dLog (a distributed
//     shared log — DeployLog).
//   - Two interchangeable transports: a simulated network with per-link
//     latency/bandwidth models (NewSimNetwork) and real TCP (ListenTCP).
//
// Quick start (see examples/quickstart for a runnable version):
//
//	net := mrp.NewSimNetwork()
//	node := mrp.NewNode(1, net.Endpoint("n1"))
//	proc, _ := node.Join(mrp.RingConfig{Ring: 1, Peers: peers, Coordinator: 1, Log: mrp.NewMemLog()})
//	learner := mrp.NewLearner(1, proc)
//	node.Start()
//	node.Multicast(1, []byte("hello, group 1"))
package mrp

import (
	"mrp/internal/msg"
	"mrp/internal/multiring"
	"mrp/internal/netsim"
	"mrp/internal/recovery"
	"mrp/internal/ringpaxos"
	"mrp/internal/smr"
	"mrp/internal/storage"
	"mrp/internal/tcpnet"
	"mrp/internal/transport"
)

// Identifiers and protocol types.
type (
	// GroupID identifies a multicast group (one Ring Paxos ring per group).
	GroupID = msg.RingID
	// NodeID identifies a process.
	NodeID = msg.NodeID
	// Instance is a consensus instance number within a ring.
	Instance = msg.Instance
	// RingInstance is one entry of a checkpoint tuple.
	RingInstance = msg.RingInstance
)

// Transport layer.
type (
	// Addr is a transport address.
	Addr = transport.Addr
	// Endpoint is a node's attachment to a network (simulated or TCP).
	Endpoint = transport.Endpoint
	// Envelope is a received message with its sender.
	Envelope = transport.Envelope
	// SimNetwork is the in-process simulated network.
	SimNetwork = netsim.Network
	// SimOption configures a SimNetwork.
	SimOption = netsim.Option
	// BatchPolicy configures transport-level write coalescing: both
	// transports pack a sender's queue backlog into one packet unless
	// Disabled is set.
	BatchPolicy = transport.BatchPolicy
	// TCPOption configures a TCP endpoint created with ListenTCP.
	TCPOption = tcpnet.Option
)

// Simulated-network constructors and options.
var (
	// NewSimNetwork creates a simulated network (LAN defaults).
	NewSimNetwork = netsim.New
	// WithLatency sets a per-link one-way latency function.
	WithLatency = netsim.WithLatency
	// WithUniformLatency sets a constant one-way latency.
	WithUniformLatency = netsim.WithUniformLatency
	// WithBandwidth sets per-link bandwidth in bytes/s.
	WithBandwidth = netsim.WithBandwidth
	// WANLatency builds the four-region EC2 latency matrix of the paper.
	WANLatency = netsim.WANLatency
	// WithSimBatch sets the simulated network's write-coalescing policy.
	WithSimBatch = netsim.WithBatch
	// ListenTCP creates a real TCP endpoint ("host:port", ":0" for any).
	ListenTCP = tcpnet.Listen
	// WithTCPBatch sets a TCP endpoint's write-coalescing policy.
	WithTCPBatch = tcpnet.WithBatch
)

// Atomic multicast (Multi-Ring Paxos).
type (
	// Node is a Multi-Ring Paxos process: one endpoint, many rings.
	Node = multiring.Node
	// Learner delivers the deterministic merge of subscribed rings. The
	// rings are fixed when it is built.
	Learner = multiring.Learner
	// Delivery is one delivered message (or skip marker).
	Delivery = multiring.Delivery
	// RingConfig parametrizes ring membership (ringpaxos.Config).
	RingConfig = ringpaxos.Config
	// Peer describes one ring member.
	Peer = ringpaxos.Peer
	// Role is the Paxos role bitmask of a ring member.
	Role = ringpaxos.Role
	// RingProcess is one ring member process.
	RingProcess = ringpaxos.Process
)

// Role bits.
const (
	RoleProposer = ringpaxos.RoleProposer
	RoleAcceptor = ringpaxos.RoleAcceptor
	RoleLearner  = ringpaxos.RoleLearner
)

// Multicast constructors.
var (
	// NewNode creates a Multi-Ring Paxos node over an endpoint.
	NewNode = multiring.NewNode
	// NewLearner creates a deterministic-merge learner (M, rings...);
	// build it before the node whose rings it merges starts.
	NewLearner = multiring.NewLearner
)

// Stable storage.
type (
	// StorageMode selects the acceptor persistence mode (five modes of
	// Figure 3).
	StorageMode = storage.Mode
	// AcceptorLog is an acceptor's stable storage for one ring.
	AcceptorLog = storage.Log
	// DiskModel describes a storage device's service times.
	DiskModel = storage.DiskModel
	// Checkpoint is a replica checkpoint (tuple + state).
	Checkpoint = storage.Checkpoint
)

// Storage modes.
const (
	InMemory = storage.InMemory
	AsyncHDD = storage.AsyncHDD
	AsyncSSD = storage.AsyncSSD
	SyncHDD  = storage.SyncHDD
	SyncSSD  = storage.SyncSSD
)

// FileWAL is a real file-backed acceptor log for TCP deployments.
type FileWAL = storage.FileWAL

// Storage constructors.
var (
	// NewLog creates an acceptor log in the given mode.
	NewLog = storage.NewLog
	// OpenFileWAL opens a file-backed acceptor log (real durability).
	OpenFileWAL = storage.OpenFileWAL
)

// NewMemLog creates an in-memory acceptor log (the common default for
// examples and tests).
func NewMemLog() *AcceptorLog { return storage.NewLog(storage.InMemory) }

// State-machine replication.
type (
	// StateMachine is the replicated application interface.
	StateMachine = smr.StateMachine
	// Replica executes delivered commands and serves recovery.
	Replica = smr.Replica
	// ReplicaConfig parametrizes a replica.
	ReplicaConfig = smr.ReplicaConfig
	// Client submits commands and collects replica responses.
	Client = smr.Client
	// ClientConfig parametrizes a client.
	ClientConfig = smr.ClientConfig
)

// SMR constructors.
var (
	// NewReplica creates an SMR replica.
	NewReplica = smr.NewReplica
	// NewClient creates an SMR client.
	NewClient = smr.NewClient
)

// Recovery (Section 5 of the paper).
type (
	// TrimCoordinator runs the coordinated log-trimming protocol.
	TrimCoordinator = recovery.TrimCoordinator
	// TrimConfig parametrizes a trim coordinator.
	TrimConfig = recovery.TrimConfig
	// RecoverConfig parametrizes replica recovery.
	RecoverConfig = recovery.RecoverConfig
)

// Recovery helpers.
var (
	// NewTrimCoordinator creates a trim coordinator for one ring.
	NewTrimCoordinator = recovery.NewTrimCoordinator
	// Recover runs the recovering-replica protocol (quorum Q_R).
	Recover = recovery.Recover
	// StartInstances converts a checkpoint tuple to per-ring delivery
	// start points.
	StartInstances = recovery.StartInstances
)
