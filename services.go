package mrp

import (
	"mrp/internal/autoshard"
	"mrp/internal/dlog"
	"mrp/internal/rebalance"
	"mrp/internal/store"
	"mrp/internal/txn"
)

// MRP-Store, the partitioned strongly consistent key-value service
// (Section 6.1, Table 1).
type (
	// Store is a running MRP-Store deployment.
	Store = store.Deployment
	// StoreConfig parametrizes a deployment.
	StoreConfig = store.DeployConfig
	// StoreClient issues read/scan/update/insert/delete requests.
	StoreClient = store.Client
	// StoreEntry is a key-value pair.
	StoreEntry = store.Entry
	// Partitioner maps keys to partitions.
	Partitioner = store.Partitioner
)

// WrongEpochError reports a command redirected past its deadline because
// the client's schema epoch lagged the replicas'.
type WrongEpochError = store.WrongEpochError

// Store constructors and helpers.
var (
	// DeployStore builds and starts an MRP-Store cluster.
	DeployStore = store.Deploy
	// NewHashPartitioner hash-partitions the key space.
	NewHashPartitioner = store.NewHashPartitioner
	// NewRangePartitioner range-partitions the key space by boundaries.
	NewRangePartitioner = store.NewRangePartitioner
	// ErrNotFound reports operations on missing keys.
	ErrNotFound = store.ErrNotFound
)

// Cross-partition transactions (StoreClient.MultiGet / MultiPut /
// Transfer / CompareAndSwapAcross): multi-key operations ordered by one
// atomic multicast — no locks, no 2PC.
type (
	// StoreCASOp is one key's conditional update in CompareAndSwapAcross.
	StoreCASOp = store.CASOp
)

var (
	// EncodeBalance renders an int64 account balance as a stored value
	// (the format StoreClient.Transfer operates on).
	EncodeBalance = txn.EncodeBalance
	// DecodeBalance reads a stored balance back; absent or malformed
	// values count as zero.
	DecodeBalance = txn.DecodeBalance
	// ErrNoSharedRing reports a conditional transaction whose
	// participants share no ring.
	ErrNoSharedRing = store.ErrNoSharedRing
)

// Elastic rebalancing: online repartitioning of a running MRP-Store
// deployment (split a partition onto a new ring served by fresh replicas,
// with zero downtime; see internal/rebalance for the protocol).
type (
	// Rebalancer coordinates online splits.
	Rebalancer = rebalance.Coordinator
	// RebalanceConfig parametrizes a rebalancer.
	RebalanceConfig = rebalance.Config
)

// NewRebalancer creates a rebalance coordinator for a deployment.
var NewRebalancer = rebalance.New

// Auto-sharding: a load-driven controller that watches per-partition load
// and size through the store's stats surface and drives the rebalancer on
// its own — split/merge thresholds with hysteresis, median-key split
// selection, a migration budget, and a controller lease held by the
// deployment (see internal/autoshard).
type (
	// AutoSharder is the auto-sharding control loop.
	AutoSharder = autoshard.Controller
	// AutoShardConfig parametrizes a controller.
	AutoShardConfig = autoshard.Config
	// StorePartitionStats is one partition's load/size accounting, read
	// from Store.PartitionStats or StoreClient.Stats.
	StorePartitionStats = store.PartitionStats
)

// NewAutoSharder creates an auto-sharding controller (call Start on it).
var NewAutoSharder = autoshard.New

// dLog, the distributed shared log service (Section 6.2, Table 2).
type (
	// Log is a running dLog deployment.
	Log = dlog.Deployment
	// LogConfig parametrizes a deployment.
	LogConfig = dlog.DeployConfig
	// LogClient issues append/multi-append/read/trim requests.
	LogClient = dlog.Client
	// LogID identifies one shared log.
	LogID = dlog.LogID
)

// dLog constructors and errors.
var (
	// DeployLog builds and starts a dLog cluster.
	DeployLog = dlog.Deploy
	// ErrTrimmed reports reads below a log's trim position.
	ErrTrimmed = dlog.ErrTrimmed
	// ErrOutOfRange reports reads past a log's tail.
	ErrOutOfRange = dlog.ErrOutOfRange
)
