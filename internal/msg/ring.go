package msg

// RingOf returns the ring a message is scoped to, if any. Ring-scoped
// messages are routed to the Ring Paxos process for that ring; the rest
// (checkpoint RPCs, client responses) go to the node's service handler.
func RingOf(m Message) (RingID, bool) {
	switch v := m.(type) {
	case *Proposal:
		return v.Ring, true
	case *Phase1B:
		return v.Ring, true
	case *Phase2:
		return v.Ring, true
	case *Decision:
		return v.Ring, true
	case *LearnReq:
		return v.Ring, true
	case *LearnResp:
		return v.Ring, true
	case *TrimQuery:
		return v.Ring, true
	case *TrimReply:
		return v.Ring, true
	case *TrimCmd:
		return v.Ring, true
	case *SkipReq:
		return v.Ring, true
	default:
		return 0, false
	}
}
