package server

import (
	"reflect"
	"strings"
	"testing"

	eagr "repro"
)

// TestWireFieldsTagged: every exported field of every body the server
// encodes — the library stats structs /stats and /queries/{id}/stats carry
// included — has a json tag, and no two fields of one flattened object share
// a key (encoding/json drops or shadows such fields without an error). A
// field added to a stats struct therefore reaches the wire under a chosen
// name with no second edit here.
func TestWireFieldsTagged(t *testing.T) {
	seen := map[reflect.Type]bool{}
	// keys collects the JSON names of typ's flattened object into names.
	var keys func(typ reflect.Type, names map[string]string)
	keys = func(typ reflect.Type, names map[string]string) {
		seen[typ] = true
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Anonymous {
				keys(f.Type, names)
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			if !ok {
				t.Errorf("%s.%s has no json tag", typ, f.Name)
				continue
			}
			name, _, _ := strings.Cut(tag, ",")
			if prev, dup := names[name]; dup {
				t.Errorf("%s.%s and %s both encode as %q", typ, f.Name, prev, name)
			}
			names[name] = typ.String() + "." + f.Name
			if f.Type.Kind() == reflect.Struct && !seen[f.Type] {
				keys(f.Type, map[string]string{})
			}
		}
	}
	for _, v := range []any{
		StatsResp{}, QueryStatsResp{}, QuerySpecReq{}, QueryResp{}, ReadResp{}, PAOResp{},
		CoveredResp{}, EdgeReq{}, NodeResp{}, ExpireBody{}, RebalanceResp{}, HealthResp{},
		IngestAck{}, ErrorResp{}, ingestEvent{},
	} {
		keys(reflect.TypeOf(v), map[string]string{})
	}
	for _, v := range []any{
		eagr.SessionStats{}, eagr.AdaptivityStats{}, eagr.IngestorStats{},
		eagr.DurabilityStats{}, eagr.Recovery{}, eagr.Stats{},
	} {
		if !seen[reflect.TypeOf(v)] {
			t.Errorf("%T is not reached from any wire body", v)
		}
	}
}
