package sweep

import (
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// cursorVersion tags the cursor wire format; bump it if the payload shape
// ever changes so stale cursors fail loudly instead of resuming wrongly.
const cursorVersion = "qc1"

// cursorHashLen is how much of the grid hash a cursor carries: enough to
// make accidentally resuming a different grid practically impossible,
// short enough to keep cursors compact.
const cursorHashLen = 16

// Cursor mints the resume token carried by the row at index next-1: it
// encodes (grid identity, next index), so presenting it back with the
// same grammar or list continues the expansion at exactly the first
// unseen point. Cursors are url-safe and opaque to clients.
func (g *Grid) Cursor(next int64) string {
	if next < 0 || next > g.Size() {
		panic(fmt.Sprintf("sweep: cursor index %d out of range [0, %d]", next, g.Size()))
	}
	payload := cursorVersion + ":" + g.hash[:cursorHashLen] + ":" + strconv.FormatInt(next, 10)
	return base64.RawURLEncoding.EncodeToString([]byte(payload))
}

// Resume verifies a cursor against this grid and returns the index to
// continue from. A cursor minted for a different grid (any axis value,
// order or default changed, any point changed, or a list's cursor
// presented with a grammar and the reverse), a tampered payload, or an
// out-of-range index is rejected — resuming must never silently skip or
// duplicate points.
func (g *Grid) Resume(cursor string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return 0, fmt.Errorf("sweep: bad cursor: %w", err)
	}
	parts := strings.SplitN(string(raw), ":", 3)
	if len(parts) != 3 || parts[0] != cursorVersion {
		return 0, errors.New("sweep: bad cursor: unrecognized format")
	}
	if parts[1] != g.hash[:cursorHashLen] {
		return 0, errors.New("sweep: cursor was issued for a different design space")
	}
	next, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return 0, errors.New("sweep: bad cursor: malformed index")
	}
	if next < 0 || next > g.Size() {
		return 0, fmt.Errorf("sweep: cursor index %d out of range [0, %d]", next, g.Size())
	}
	return next, nil
}
