package schedd

import "bytes"

// ParseSubmitRequestReflect is ParseSubmitRequest without the
// canonical-shape fast path: decodeStrict and the same validation,
// the reflection path FuzzSubmitRequest holds the fast path to.
func ParseSubmitRequestReflect(body []byte) (*SubmitRequest, error) {
	var req SubmitRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}
