// Package strictjson is the one JSON decoding rule every loader in the
// module shares: a key with no matching struct field is an error naming
// it, and so is anything but whitespace after the single top-level value.
// Files, checkpoints and request bodies arrive from disk and from
// untrusted clients; a silently ignored key or a second document glued
// onto the first is exactly the input that yields a valid-looking answer
// to a different question.
package strictjson

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Unmarshal decodes data into v like json.Unmarshal, except that unknown
// object keys are rejected (json.Decoder.DisallowUnknownFields) and the
// value must be followed by nothing but JSON whitespace.
func Unmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	for _, c := range data[dec.InputOffset():] {
		if !IsSpace(c) {
			return fmt.Errorf("invalid character %q after top-level value", c)
		}
	}
	return nil
}

// IsSpace reports whether c is JSON insignificant whitespace (RFC 8259 §2).
func IsSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
