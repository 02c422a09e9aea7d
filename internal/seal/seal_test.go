package seal

import (
	"fmt"
	"strings"
	"testing"
)

type doc struct {
	Name  string
	Count int
	Data  []byte
}

// TestRoundTrip: an image is the magic line, the JSON document and a
// trailer carrying Digest, and it decodes to the value it encodes.
func TestRoundTrip(t *testing.T) {
	in := doc{Name: "a b", Count: 7, Data: []byte{0, 1, 2}}
	img := Encode("test v1", in)
	want := fmt.Sprintf("test v1\n{\"Name\":\"a b\",\"Count\":7,\"Data\":\"AAEC\"}\ndigest %016x\n", Digest("test v1", in))
	if string(img) != want {
		t.Fatalf("image = %q, want %q", img, want)
	}
	var out doc
	if err := Decode("test v1", img, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || string(out.Data) != string(in.Data) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
}

// TestDecodeRejects: a broken seal, another magic line and a
// non-strict document are errors.
func TestDecodeRejects(t *testing.T) {
	img := Encode("test v1", doc{Name: "x", Count: 1})
	flip := []byte(string(img))
	flip[len("test v1\n")+3] ^= 0x20
	body := func(s string) []byte { return Seal([]byte(s)) }
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"byte flip", flip, "digest mismatch"},
		{"truncated", img[:len(img)-3], "digest mismatch"},
		{"no trailer", img[:len("test v1\n")+5], "no digest trailer"},
		{"other magic", body("test v2\n{}\n"), `not a test v1 image (starts "test v2")`},
		{"magic prefix only", body("test v10\n{}\n"), `not a test v1 image (starts "test v10")`},
		{"unknown field", body("test v1\n{\"Bogus\":1}\n"), `unknown field "Bogus"`},
		{"wrong type", body("test v1\n{\"Count\":\"1\"}\n"), "cannot unmarshal string"},
		{"trailing document", body("test v1\n{}\n{}\n"), "data after the document"},
		{"trailing text", body("test v1\n{} x\n"), "data after the document"},
		{"empty document", body("test v1\n"), "EOF"},
	} {
		var out doc
		if err := Decode("test v1", tc.data, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
}
