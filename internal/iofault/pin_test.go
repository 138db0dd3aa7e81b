package iofault

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
)

// pinnedActions is the first 64 actions of scope "archive" at
// DefaultMatrix(7).Scale(2), cycling create, read, write (64 bytes) and
// sync: N = ENOSPC, E = EIO, T<n> = torn after n bytes, s<ns> = slow,
// - = pass. Any change to the seeded stream, the scope derivation or the
// draw order shows here.
const pinnedActions = "- - - - N - - - s999245 - - - - s1516513 N - - - N s238615 - s255452 - - - - T47 - - - - s926404 s1007100 - T17 - - - - - - s1432425 - - N s164778 s519786 - - - - - - - T28 - - - - - - E T31 E"

func TestActionStreamPinned(t *testing.T) {
	in := NewInjector(DefaultMatrix(7).Scale(2), nil)
	var got []string
	for i := 0; i < 64; i++ {
		a := in.next("archive", op(i%4), 64)
		switch {
		case a.torn > 0:
			got = append(got, fmt.Sprintf("T%d", a.torn))
		case errors.Is(a.err, syscall.ENOSPC):
			got = append(got, "N")
		case a.err != nil:
			got = append(got, "E")
		case a.slow > 0:
			got = append(got, fmt.Sprintf("s%d", a.slow))
		default:
			got = append(got, "-")
		}
	}
	if s := strings.Join(got, " "); s != pinnedActions {
		t.Fatalf("action stream changed:\ngot  %s\nwant %s", s, pinnedActions)
	}
}
