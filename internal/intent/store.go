package intent

import (
	"fmt"
	"sort"
)

// Store holds the desired state: the latest accepted version of each named
// spec. Writes are validated and version-gated — a stale writer (an old
// controller replica, a replayed request) cannot regress the desired state.
type Store struct {
	specs map[string]*Spec
	// vpnOwner maps VPN name -> spec name, enforcing that two specs cannot
	// both claim the same VPN.
	vpnOwner map[string]string
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{specs: make(map[string]*Spec), vpnOwner: make(map[string]string)}
}

// Put accepts a spec if it validates, strictly increases the stored
// version of its name, and claims no VPN owned by a different spec.
func (st *Store) Put(sp *Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	if cur, ok := st.specs[sp.Name]; ok && sp.Version <= cur.Version {
		return fmt.Errorf("intent: stale version %d for spec %q (have %d)",
			sp.Version, sp.Name, cur.Version)
	}
	for _, vs := range sp.VPNs {
		if owner, ok := st.vpnOwner[vs.Name]; ok && owner != sp.Name {
			return fmt.Errorf("intent: VPN %q is owned by spec %q", vs.Name, owner)
		}
	}
	// Release VPNs the new version no longer declares.
	if cur, ok := st.specs[sp.Name]; ok {
		for _, vs := range cur.VPNs {
			delete(st.vpnOwner, vs.Name)
		}
	}
	for _, vs := range sp.VPNs {
		st.vpnOwner[vs.Name] = sp.Name
	}
	st.specs[sp.Name] = sp
	return nil
}

// Delete removes a spec (its VPNs leave the desired state; the reconciler
// will deprovision them).
func (st *Store) Delete(name string) bool {
	sp, ok := st.specs[name]
	if !ok {
		return false
	}
	for _, vs := range sp.VPNs {
		delete(st.vpnOwner, vs.Name)
	}
	delete(st.specs, name)
	return true
}

// Version returns the stored version of a spec (0 = absent).
func (st *Store) Version(name string) int {
	if sp, ok := st.specs[name]; ok {
		return sp.Version
	}
	return 0
}

// Desired merges every stored spec into one deterministic desired state:
// all VPNs across all specs, sorted by VPN name.
func (st *Store) Desired() []VPNSpec {
	var out []VPNSpec
	for _, sp := range st.specs {
		out = append(out, sp.VPNs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
