package cluster

import (
	"context"
	"slices"
	"testing"
)

const memberA, memberB = "http://a:1", "http://b:1"

// TestNewFleetRejectsBadMemberLists: the member list must be non-empty,
// with no empty or repeated member, and must include self.
func TestNewFleetRejectsBadMemberLists(t *testing.T) {
	for _, tc := range []struct {
		name    string
		members []string
		self    string
	}{
		{"no members", nil, memberA},
		{"empty member", []string{memberA, ""}, memberA},
		{"repeated member", []string{memberA, memberB, memberA}, memberA},
		{"self not a member", []string{memberA, memberB}, "http://c:1"},
	} {
		if _, err := NewFleet(tc.members, tc.self); err == nil {
			t.Errorf("%s: %q with self %q accepted", tc.name, tc.members, tc.self)
		}
	}
}

// TestFleetMembersSortedAndLive: every member computes the same member
// list whatever order its -peers flag lists them in, and the fan-out set is
// every live member but self.
func TestFleetMembersSortedAndLive(t *testing.T) {
	const memberC = "http://c:1"
	members := []string{memberC, memberA, memberB}
	f, err := NewFleet(members, memberB)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{memberA, memberB, memberC}; !slices.Equal(f.Members, want) {
		t.Errorf("Members = %q, want %q", f.Members, want)
	}
	if members[0] != memberC {
		t.Error("NewFleet sorted the caller's slice")
	}
	if got := f.LiveMembers(); !slices.Equal(got, []string{memberA, memberC}) {
		t.Errorf("LiveMembers = %q, want every member but self", got)
	}
	fp := &failingProbe{}
	fp.set(memberC, true)
	f.Health = NewHealth(f.Members, f.Self, fp.probe, HealthOptions{DeadAfter: 1})
	f.Health.ProbeNow(context.Background())
	if got := f.LiveMembers(); !slices.Equal(got, []string{memberA}) {
		t.Errorf("LiveMembers = %q after %s failed its probe, want only %s", got, memberC, memberA)
	}
	var standalone *Fleet
	if standalone.LiveMembers() != nil {
		t.Error("a nil fleet has live members")
	}
	standalone.Stop()
}
