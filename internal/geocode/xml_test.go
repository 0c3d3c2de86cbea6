package geocode

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshalResultSet feeds arbitrary bytes to the response decoder. It
// must never panic, and any document it accepts must reach a fixed point
// after one Marshal → UnmarshalResultSet round trip: re-rendering the
// decoded set and decoding it again yields the same set and the same bytes.
// Seeds live in testdata/fuzz/FuzzUnmarshalResultSet.
func FuzzUnmarshalResultSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		rs, err := UnmarshalResultSet(doc)
		if err != nil {
			return
		}
		once, err := rs.Marshal()
		if err != nil {
			t.Fatalf("marshal of a decoded set: %v", err)
		}
		rs1, err := UnmarshalResultSet(once)
		if err != nil {
			t.Fatalf("decode of own output: %v\n%s", err, once)
		}
		twice, err := rs1.Marshal()
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip not a fixed point:\nonce:  %q\ntwice: %q", once, twice)
		}
		rs2, err := UnmarshalResultSet(twice)
		if err != nil {
			t.Fatalf("decode of second output: %v", err)
		}
		if !reflect.DeepEqual(rs1, rs2) {
			t.Fatalf("decoded sets differ:\n%+v\n%+v", rs1, rs2)
		}
	})
}
