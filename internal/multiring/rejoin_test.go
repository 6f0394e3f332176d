package multiring

import (
	"fmt"
	"testing"
)

// These tests pin the merge-level contract crash recovery relies on
// (store.RecoverReplica): a learner rebuilt from a checkpoint tuple and
// fed each ring's decided suffix from the recovered frontier delivers
// exactly the suffix a continuously running learner delivers after that
// frontier — including when the frontier is the edge of a rate-leveling
// skip range.

// TestLearnerRejoinAtFrontierDeterministic replays a two-ring stream into
// a continuous learner A, then rebuilds a learner B the way a recovered
// replica does: fresh, with each ring's source starting just past a
// round-aligned checkpoint frontier {r1: 2, r2: 2}. B's delivery sequence
// must equal A's suffix after that frontier.
func TestLearnerRejoinAtFrontierDeterministic(t *testing.T) {
	script := []feed{
		{ring: 1, inst: 1, payload: "a1"},
		{ring: 1, inst: 2, payload: "a2"},
		{ring: 1, inst: 3, payload: "a3"},
		{ring: 1, inst: 4, payload: "a4"},
		{ring: 2, inst: 1, payload: "b1"},
		{ring: 2, inst: 2, payload: "b2"},
		{ring: 2, inst: 3, payload: "b3"},
		{ring: 2, inst: 4, payload: "b4"},
	}
	srcA := replay(t, script, 1, 2)
	la := NewLearner(1, srcA[1], srcA[2])
	la.Start()
	defer la.Stop()
	full := collect(t, la, 8)

	// The recovered learner consumes only the post-checkpoint suffix: each
	// ring's decision stream resumes at frontier+1, as ringpaxos does with
	// Config.StartInstance.
	var suffix []feed
	for _, f := range script {
		if f.inst > 2 {
			suffix = append(suffix, f)
		}
	}
	srcB := replay(t, suffix, 1, 2)
	lb := NewLearner(1, srcB[1], srcB[2])
	lb.Start()
	defer lb.Stop()
	got := collect(t, lb, 4)

	want := full[4:]
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rejoined merge diverged from the continuous suffix:\n got: %v\nwant: %v", got, want)
	}
}

// TestLearnerResubscribeRuntimeRingAtFrontier models a recovered replica
// of a split partition: its ring was created while the deployment ran, its
// checkpoint frontier sits at the edge of a skip range, and the rebuilt
// learner's source replays only the instances after it. The deliveries
// must equal the continuous learner's data suffix.
func TestLearnerResubscribeRuntimeRingAtFrontier(t *testing.T) {
	script := []feed{
		{ring: 7, inst: 1, payload: "c1"},
		{ring: 7, inst: 2, skipTo: 5}, // rate leveling skips 2,3,4
		{ring: 7, inst: 5, payload: "c5"},
		{ring: 7, inst: 6, payload: "c6"},
	}
	srcA := replay(t, script, 7)
	la := NewLearner(1, srcA[7])
	la.Start()
	defer la.Stop()
	full := collectData(t, la, 3)

	// The replica applied c1 and the skip: its frontier is 4 (SkipTo-1),
	// so the rebuilt ring process starts delivery at instance 5.
	var suffix []feed
	for _, f := range script {
		if f.inst >= 5 {
			suffix = append(suffix, f)
		}
	}
	srcB := replay(t, suffix, 7)
	lb := NewLearner(1, srcB[7])
	lb.Start()
	defer lb.Stop()
	got := collectData(t, lb, 2)

	want := full[1:]
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered merge diverged:\n got: %v\nwant: %v", got, want)
	}
}
