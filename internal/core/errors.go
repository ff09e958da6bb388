// Typed provisioning errors. Every precondition failure in the
// provisioning API carries a ProvisionCode — a small-int sentinel in the
// style of packet.DropReason — so callers that automate provisioning (the
// intent reconciler, the netconf transaction layer, the TE retry queue)
// classify failures as retryable or terminal without matching on message
// text. The rendered messages keep the exact phrases operators and older
// tests grep for ("already defined", "not defined", "unknown node", ...).
package core

import (
	"errors"
	"fmt"
)

// ProvisionCode classifies one provisioning precondition failure.
type ProvisionCode uint8

// Provisioning failure codes. The first block is terminal: retrying the
// identical call can never succeed without an operator changing the
// request. The retryable block covers resource contention that a later
// attempt may win (admission control, a pool draining, an LSP converging).
const (
	ProvNotBuilt         ProvisionCode = iota // BuildProvider has not run
	ProvDuplicateVPN                          // VPN name already defined
	ProvUnknownVPN                            // VPN name not defined
	ProvVPNInUse                              // VPN still has sites or TE intents
	ProvDuplicateSite                         // site name already provisioned
	ProvUnknownSite                           // site name not provisioned
	ProvUnknownNode                           // node name not in the topology
	ProvUnknownAS                             // AS name not in the multi-provider simulation
	ProvSkeletonMismatch                      // retired site skeleton is shaped differently
	ProvSingleHomed                           // dual-homing op on a single-homed site
	ProvNoBGPSpeaker                          // attachment PE runs no BGP speaker
	ProvDuplicateTE                           // TE intent name already exists
	ProvUnknownTE                             // TE intent name not found
	ProvTERequiresMPLS                        // TE op against a PlainIP backbone
	ProvMembership                            // registry join/leave inconsistency
	ProvNoTEPath                              // retryable: no path admits the reservation now
	ProvTENotUp                               // retryable: intent exists but is not up yet

	// NumProvisionCodes is the count of codes (array sizing).
	NumProvisionCodes int = iota
)

var provisionCodeNames = [NumProvisionCodes]string{
	ProvNotBuilt:         "not_built",
	ProvDuplicateVPN:     "duplicate_vpn",
	ProvUnknownVPN:       "unknown_vpn",
	ProvVPNInUse:         "vpn_in_use",
	ProvDuplicateSite:    "duplicate_site",
	ProvUnknownSite:      "unknown_site",
	ProvUnknownNode:      "unknown_node",
	ProvUnknownAS:        "unknown_as",
	ProvSkeletonMismatch: "skeleton_mismatch",
	ProvSingleHomed:      "single_homed",
	ProvNoBGPSpeaker:     "no_bgp_speaker",
	ProvDuplicateTE:      "duplicate_te",
	ProvUnknownTE:        "unknown_te",
	ProvTERequiresMPLS:   "te_requires_mpls",
	ProvMembership:       "membership",
	ProvNoTEPath:         "no_te_path",
	ProvTENotUp:          "te_not_up",
}

// String returns the snake_case name (telemetry label, journal detail).
func (c ProvisionCode) String() string {
	if int(c) < len(provisionCodeNames) {
		return provisionCodeNames[c]
	}
	return fmt.Sprintf("provision_code(%d)", uint8(c))
}

// Error makes the bare code usable as an error sentinel with errors.Is.
func (c ProvisionCode) Error() string { return "core: " + c.String() }

// Retryable reports whether a later identical attempt may succeed: true
// only for resource-contention codes. Everything else needs the request
// changed, not repeated.
func (c ProvisionCode) Retryable() bool {
	switch c {
	case ProvNoTEPath, ProvTENotUp:
		return true
	}
	return false
}

// ProvisionError is a classified provisioning failure: the code for
// machines, the subject for journals ("vpn:acme", "site:hq", "lsp:gold"),
// and a rendered human message.
type ProvisionError struct {
	Code    ProvisionCode
	Subject string
	Detail  string
}

// Error returns the rendered message.
func (e *ProvisionError) Error() string { return e.Detail }

// Unwrap exposes the code, so errors.Is(err, core.ProvUnknownVPN) works.
func (e *ProvisionError) Unwrap() error { return e.Code }

// provErr builds a ProvisionError with a "core: "-prefixed message.
func provErr(code ProvisionCode, subject, format string, args ...any) *ProvisionError {
	return &ProvisionError{Code: code, Subject: subject, Detail: "core: " + fmt.Sprintf(format, args...)}
}

// CodeOf extracts the ProvisionCode from an error chain. The second
// return is false for untyped errors, which callers should treat as
// terminal — an unclassified failure retried blind is how reconcilers
// loop forever.
func CodeOf(err error) (ProvisionCode, bool) {
	var pe *ProvisionError
	if errors.As(err, &pe) {
		return pe.Code, true
	}
	var c ProvisionCode
	if errors.As(err, &c) {
		return c, true
	}
	return 0, false
}

// Retryable classifies any error: true only for typed retryable codes.
func Retryable(err error) bool {
	c, ok := CodeOf(err)
	return ok && c.Retryable()
}
