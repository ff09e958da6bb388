package device

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mplsvpn/internal/mpls"
	"mplsvpn/internal/vpn"
)

// hasPointers reports whether a value of type typ holds a pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// arrays calls visit with the element type of every slice reachable from typ
// through struct fields and pointers to structs: the arrays a table keeps
// its entries in, each named by its field path.
func arrays(path string, typ reflect.Type, visit func(path string, elem reflect.Type)) {
	switch typ.Kind() {
	case reflect.Pointer:
		if typ.Elem().Kind() == reflect.Struct {
			arrays(path, typ.Elem(), visit)
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			arrays(path+"."+f.Name, f.Type, visit)
		}
	case reflect.Slice:
		visit(path, typ.Elem())
	}
}

// TestForwardingStateHoldsNoPointer: the forwarding values a router holds
// by the ten thousand (an ILM cell, an FTN trie value, an NHLFE, a VRF route)
// hold no pointer and keep their sizes, and so does every array its label
// plane, IP tables and VRF tables keep entries in: the collector scans none
// of them. The one exemption is EncapTunnels, the E3 IPSec gateway's
// outbound SAs, nil on every router but an E3 CE: an SA is a live object
// with its own replay state.
func TestForwardingStateHoldsNoPointer(t *testing.T) {
	field := func(typ reflect.Type, name string) reflect.Type {
		t.Helper()
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %s", typ, name)
		}
		return f.Type
	}
	ftnTrie := field(reflect.TypeOf(mpls.FTN{}), "table").Elem()
	for _, c := range []struct {
		name string
		typ  reflect.Type
		max  uintptr
	}{
		{"ILM cell", field(reflect.TypeOf(mpls.LFIB{}), "ilm").Elem(), 8},
		{"FTN trie value", field(ftnTrie, "vals").Elem(), 8},
		{"NHLFE", reflect.TypeOf(mpls.NHLFE{}), 32},
		{"vpn.Route", reflect.TypeOf(vpn.Route{}), 32},
	} {
		if hasPointers(c.typ) {
			t.Errorf("%s (%v) holds a pointer", c.name, c.typ)
		}
		if c.typ.Size() > c.max {
			t.Errorf("%s (%v) is %d bytes, at most %d", c.name, c.typ, c.typ.Size(), c.max)
		}
	}

	var scanned []string
	visit := func(path string, elem reflect.Type) {
		if hasPointers(elem) {
			scanned = append(scanned, path)
		}
	}
	router := reflect.TypeOf(Router{})
	tables := 0
	for i := 0; i < router.NumField(); i++ {
		f := router.Field(i)
		if f.Type.Kind() != reflect.Pointer {
			continue
		}
		if pkg := f.Type.Elem().PkgPath(); pkg == "mplsvpn/internal/mpls" || strings.HasPrefix(f.Type.Elem().Name(), "Table[") {
			arrays("Router."+f.Name, f.Type, visit)
			tables++
		}
	}
	arrays("vpn.VRF.table", field(reflect.TypeOf(vpn.VRF{}), "table"), visit)
	if tables != 5 { // LFIB, FTN, IPTable, LocalPrefixes, EncapTunnels
		t.Errorf("walked %d router tables, want 5", tables)
	}
	if want := []string{"Router.EncapTunnels.vals"}; !slices.Equal(scanned, want) {
		t.Errorf("arrays holding pointers: %v, want only %v", scanned, want)
	}
}
