package strictjson

import (
	"strings"
	"testing"
)

type doc struct {
	A int `json:"a"`
}

func TestUnmarshal(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantErr string // "" means accepted
	}{
		{`{"a":1}`, ""},
		{"{\"a\":1}\n", ""},
		{" \t\r\n{\"a\":1} \t\r\n", ""},
		{`{"a":1}x`, `invalid character 'x' after top-level value`},
		{`{"a":1}{}`, `invalid character '{' after top-level value`},
		{`{"a":1} {"a":2}`, `invalid character '{' after top-level value`},
		{`{"a":1,"b":2}`, `unknown field "b"`},
		{`{"a":`, `unexpected EOF`},
		{``, `EOF`},
	} {
		var d doc
		err := Unmarshal([]byte(tc.in), &d)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("Unmarshal(%q): %v", tc.in, err)
		case tc.wantErr == "" && d.A != 1:
			t.Errorf("Unmarshal(%q) decoded %+v", tc.in, d)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("Unmarshal(%q) = %v, want an error containing %q", tc.in, err, tc.wantErr)
		}
	}
}
