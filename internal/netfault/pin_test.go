package netfault

import (
	"fmt"
	"strings"
	"testing"
)

// pinnedVerdicts is the first 64 verdicts of scope "client" at
// DefaultMatrix(7).Scale(2): D = drop, P = partition, T<n> = tear after n
// bytes, d<ns> = delay, - = pass. Any change to the seeded stream, the
// scope derivation or the draw order shows here.
const pinnedVerdicts = "d1468074 D D d3911149 d3632192 d3813017 T3964 d808509 T1916 P P P T1921 T480 d69094 D D d3161897 D d3461566 P P P d2037400 P P P D P P P d1626876 d461938 d583624 d590176 P P P d134926 d3796306 d1556397 D D D d2527423 D P P P d1350471 d1906056 D d2032613 D d132853 d3506126 T3080 D P P P D d1908808 d3451817"

func TestVerdictStreamPinned(t *testing.T) {
	in := NewInjector(DefaultMatrix(7).Scale(2), nil)
	var got []string
	for _, v := range drawFates(in, "client", 64) {
		switch {
		case v.refuse && v.class == ClassPartition:
			got = append(got, "P")
		case v.refuse:
			got = append(got, "D")
		case v.tearAfter > 0:
			got = append(got, fmt.Sprintf("T%d", v.tearAfter))
		case v.delay > 0:
			got = append(got, fmt.Sprintf("d%d", v.delay))
		default:
			got = append(got, "-")
		}
	}
	if s := strings.Join(got, " "); s != pinnedVerdicts {
		t.Fatalf("verdict stream changed:\ngot  %s\nwant %s", s, pinnedVerdicts)
	}
}
