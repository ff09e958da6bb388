package bgp

import (
	"reflect"
	"testing"
)

// How a checkpoint accounts for a field.
const (
	// walked: Mesh.State writes it and reads it back; by names the walk.
	walked = "walked"
	// derived: nothing is written, because a restore has it anyway; by names
	// the function that puts it there — the scenario rebuild's own call for
	// configuration, the recomputation a load ends with for the rest.
	derived = "derived"
	// scratch: meaningful only while one operation runs, and self-validating
	// or reset by that operation; by names the operation.
	scratch = "scratch"
)

type fieldEntry struct{ kind, by string }

// checkpointLedger classifies every field of the types a "bgp" section is
// made of. TestCheckpointFieldLedger fails on a field that is not listed, so
// a field cannot be added without deciding whether a checkpoint carries it.
var checkpointLedger = map[reflect.Type]map[string]fieldEntry{
	reflect.TypeOf(VPNRoute{}): {
		"Prefix":       {walked, "routeTable.route"},
		"NextHop":      {walked, "routeTable.route"},
		"Label":        {walked, "routeTable.route"},
		"RTs":          {walked, "routeTable.route"},
		"LocalPref":    {walked, "routeTable.route"},
		"ASPathLen":    {walked, "routeTable.route"},
		"OriginPE":     {walked, "routeTable.route"},
		"OriginatorID": {walked, "routeTable.route"},
		"ClusterList":  {walked, "routeTable.route"},
		"slot":         {scratch, "routeTable.add"},
	},
	reflect.TypeOf(Speaker{}): {
		"Node":        {derived, "Mesh.AddSpeaker"},
		"Loopback":    {derived, "Mesh.AddSpeaker"},
		"exports":     {walked, "routeTable.speakerState"},
		"rib":         {walked, "routeTable.speakerState"},
		"Filter":      {derived, "the scenario rebuild (live wiring)"},
		"Received":    {walked, "routeTable.speakerState"},
		"Retained":    {walked, "routeTable.speakerState"},
		"stale":       {walked, "routeTable.speakerState"},
		"damp":        {walked, "routeTable.speakerState"},
		"prevHad":     {walked, "routeTable.speakerState"},
		"flapPending": {walked, "routeTable.speakerState"},
	},
	reflect.TypeOf(rib{}): {
		"paths":  {walked, "routeTable.speakerState"},
		"sealed": {derived, "routeTable.speakerState (the tail is empty outside Converge)"},
		"best":   {derived, "Speaker.selectBest"},
	},
	reflect.TypeOf(Mesh{}): {
		"Layout":            {derived, "Mesh.UseRouteReflector, Mesh.UseClusters"},
		"speakers":          {walked, "Mesh.State (overlaid on the set Mesh.AddSpeaker built)"},
		"rr":                {derived, "Mesh.UseRouteReflector"},
		"clusters":          {derived, "Mesh.UseClusters"},
		"rrClusterIdx":      {derived, "Mesh.UseClusters"},
		"clientClusterIdx":  {derived, "Mesh.UseClusters"},
		"rtInterest":        {derived, "Mesh.SetRTInterest"},
		"UpdatesSent":       {walked, "Mesh.State"},
		"LoopPrevented":     {walked, "Mesh.State"},
		"peerState":         {walked, "Mesh.State"},
		"clock":             {derived, "Mesh.SetClock"},
		"damping":           {derived, "Mesh.SetDamping"},
		"newlySuppressed":   {walked, "Mesh.State"},
		"SessionFlaps":      {walked, "Mesh.State"},
		"StaleRetained":     {walked, "Mesh.State"},
		"StaleSwept":        {walked, "Mesh.State"},
		"WithdrawalsSent":   {walked, "Mesh.State"},
		"RouteSuppressions": {walked, "Mesh.State"},
		"RouteReuses":       {walked, "Mesh.State"},
	},
}

// TestCheckpointFieldLedger: every field of VPNRoute, Speaker, rib and Mesh
// is classified, and the ledger names no field that is gone.
func TestCheckpointFieldLedger(t *testing.T) {
	for typ, ledger := range checkpointLedger {
		fields := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			fields[name] = true
			e, ok := ledger[name]
			switch {
			case !ok:
				t.Errorf("%s.%s is not in the checkpoint ledger: is it walked, derived or scratch?", typ.Name(), name)
			case e.kind != walked && e.kind != derived && e.kind != scratch:
				t.Errorf("%s.%s: unknown kind %q", typ.Name(), name, e.kind)
			case e.by == "":
				t.Errorf("%s.%s is %s by nothing: name the function", typ.Name(), name, e.kind)
			}
		}
		for name := range ledger {
			if !fields[name] {
				t.Errorf("the checkpoint ledger lists %s.%s, which does not exist", typ.Name(), name)
			}
		}
	}
}
