package trace

import "testing"

// FuzzTraceparent feeds ParseTraceparent arbitrary header values, since
// every daemon decodes the header from untrusted requests. It must never
// panic, and whatever it accepts must survive a format/parse round trip with
// the same trace ID, span ID and sampling decision. Seeds live under
// testdata/fuzz/FuzzTraceparent.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-0102030405060708090a0b0c0d0e0f10-deadbeef00112233-01")
	f.Fuzz(func(t *testing.T, s string) {
		tr, sp, sampled, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		out := FormatTraceparent(tr, sp, sampled)
		tr2, sp2, sampled2, ok2 := ParseTraceparent(out)
		if !ok2 || tr2 != tr || sp2 != sp || sampled2 != sampled {
			t.Fatalf("ParseTraceparent(%q) = %v %v %v, but its formatted form %q parses to %v %v %v ok=%v",
				s, tr, sp, sampled, out, tr2, sp2, sampled2, ok2)
		}
	})
}
