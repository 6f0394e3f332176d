// Package nolinta exercises suppression-marker validation: the reason
// after the — separator is mandatory, analyzer names must exist, and a
// nolint must name at least one analyzer.
// The markers below are deliberately malformed; TestNolintValidation in
// lint_test.go asserts the exact findings directly, because a `// want`
// comment cannot share a line with the marker it would re-parse.
package nolinta

import "time"

// baseline is the one sanctioned suppression — named analyzer,
// non-empty reason — and must produce no validation finding.
//
//mrp:deterministic
func baseline() int64 {
	return time.Now().UnixNano() //mrp:nolint wallclock — fixture: the sanctioned baseline suppression
}

// emptyReason ends in the separator with nothing after it. The finding
// fires, but the suppression still mutes wallclock: silence stays
// silenced, it just never stays silent about itself.
//
//mrp:deterministic
func emptyReason() int64 {
	return time.Now().UnixNano() //mrp:nolint wallclock —
}

// noSeparator has trailing prose but no — separator at all.
//
//mrp:deterministic
func noSeparator() int64 {
	return time.Now().UnixNano() //mrp:nolint wallclock because reasons need a separator
}

// unknownName suppresses a nonexistent analyzer: flagged, and the
// wallclock finding underneath still fires because nothing real was
// suppressed.
//
//mrp:deterministic
func unknownName() int64 {
	return time.Now().UnixNano() //mrp:nolint wallcheck — reasoned, but the analyzer name is a typo
}

// noNames gives a reason but names no analyzer.
//
//mrp:deterministic
func noNames() int64 {
	return 0 //mrp:nolint — a dangling reason with nothing to suppress
}
