package chaos

import (
	"encoding/binary"
	"fmt"
	"strings"

	"mspr/internal/core"
	"mspr/internal/oracle"
)

// U64 encodes a counter the way the storm application and txmsp's OpAdd
// store one: eight big-endian bytes.
func U64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// AsU64 decodes a counter; a missing or short value reads as zero.
func AsU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// KeyName names the k-th shared counter of the counter application.
func KeyName(k int) string { return fmt.Sprintf("key-%d", k) }

// addOne is the atomic read-modify-write every storm handler bumps a
// shared counter with: a separate ReadShared then WriteShared loses
// updates between two sessions (ROADMAP P0).
func addOne(ctx *core.Ctx, name string) ([]byte, error) {
	return ctx.UpdateShared(name, func(old []byte) []byte { return U64(AsU64(old) + 1) })
}

// BumpSession advances the calling session's own operation counter and
// returns it encoded: the reply an exactly-once check compares against
// the number of operations the client has issued.
func BumpSession(ctx *core.Ctx) []byte {
	n := U64(AsU64(ctx.GetVar("n")) + 1)
	ctx.SetVar("n", n)
	return n
}

// CounterApp is the application every storm runs, over keys shared
// counters (KeyName(0) … KeyName(keys-1), all starting at zero):
//
//	bump      — add one to shared counter 0 and to the session's own
//	            counter; returns the session counter
//	total     — read shared counter 0
//	mark(k)   — add one to shared counter k (U64-encoded; absent = 0);
//	            returns its new value
//	get(k)    — read shared counter k
func CounterApp(keys int) core.Definition {
	shared := make([]core.SharedDef, keys)
	for k := range shared {
		shared[k] = core.SharedDef{Name: KeyName(k), Initial: U64(0)}
	}
	return core.Definition{
		Methods: map[string]core.Handler{
			"bump": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				_, err := addOne(ctx, KeyName(0))
				return BumpSession(ctx), err
			},
			"total": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				return ctx.ReadShared(KeyName(0))
			},
			"mark": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				return addOne(ctx, KeyName(int(AsU64(arg))))
			},
			"get": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				return ctx.ReadShared(KeyName(int(AsU64(arg))))
			},
		},
		Shared: shared,
	}
}

// oracleVerdict runs the correctness checkers over everything rec
// observed — the declared effects balanced against the final states the
// caller has recorded — and folds the violations into one error.
func oracleVerdict(rec *oracle.Recorder) error {
	vs := rec.Check()
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	return fmt.Errorf("oracle: %d violations (%d events recorded):\n%s", len(vs), rec.Len(), strings.Join(msgs, "\n"))
}
