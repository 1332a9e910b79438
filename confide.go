// Package confide is the public API of this repository: a from-scratch Go
// reproduction of CONFIDE, the confidentiality layer for financial-grade
// consortium blockchains presented in "Confidentiality Support over
// Financial Grade Consortium Blockchain" (SIGMOD 2020).
//
// CONFIDE executes confidential smart contracts inside a (simulated) TEE.
// Three protocols protect a transaction end to end:
//
//   - T-Protocol: clients seal transactions as crypto digital envelopes
//     under the engine's attested public key pk_tx, with a one-time key
//     k_tx per transaction; receipts come back sealed under the same k_tx.
//   - D-Protocol: contract state persists only as authenticated ciphertext
//     under the states root key k_states, bound to the contract identity.
//   - K-Protocol: node enclaves agree on the secrets via mutual remote
//     attestation (or a centralized HSM-grade service).
//
// Quick start:
//
//	net, _ := confide.NewNetwork(confide.NetworkOptions{Nodes: 4})
//	defer net.Close()
//	defer net.StartDriver(0)() // the nodes cut their own blocks
//	code, _ := confide.CompileContract(src, confide.VMCVM)
//	net.DeployEverywhere(addr, owner, confide.VMCVM, code, true, 1)
//	client, _ := confide.NewClient(net.EnvelopePublicKey())
//	tx, ktx, _ := client.NewConfidentialTx(addr, "set", []byte("secret"))
//	net.Submit(tx)
//	net.WaitIdle(5 * time.Second) // until it has committed everywhere
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package confide

import (
	"confide/internal/ccl"
	"confide/internal/ccle"
	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/crypto"
	"confide/internal/node"
	"confide/internal/p2p"
	"confide/internal/tee"
)

// Re-exported domain types.
type (
	// Network is an in-process consortium network of CONFIDE nodes.
	Network = node.Cluster
	// NetworkOptions shapes a Network.
	NetworkOptions = node.ClusterOptions
	// NodeConfig shapes one node.
	NodeConfig = node.Config
	// Node is one network participant.
	Node = node.Node
	// Client is the user side of the T-Protocol.
	Client = core.Client
	// Address identifies an account or contract.
	Address = chain.Address
	// Hash is a 32-byte digest.
	Hash = chain.Hash
	// Tx is a wire transaction.
	Tx = chain.Tx
	// Receipt is an execution receipt.
	Receipt = chain.Receipt
	// VMKind selects a contract's virtual machine.
	VMKind = core.VMKind
	// EngineOptions toggles engine optimizations (OPT1–OPT4).
	EngineOptions = core.Options
	// LinkProfile describes simulated network links.
	LinkProfile = p2p.LinkProfile
	// NetworkShape configures the simulated p2p fabric.
	NetworkShape = p2p.Config
	// EnclaveConfig configures the simulated TEE.
	EnclaveConfig = tee.Config
	// Schema is a parsed CCLe confidentiality schema.
	Schema = ccle.Schema
)

// VM kinds.
const (
	// VMCVM selects CONFIDE-VM, the optimized Wasm-derived engine.
	VMCVM = core.VMCVM
	// VMEVM selects the EVM-compatible baseline engine.
	VMEVM = core.VMEVM
)

// Receipt statuses.
const (
	ReceiptOK     = chain.ReceiptOK
	ReceiptFailed = chain.ReceiptFailed
)

// NewNetwork boots an in-process network: the software root of trust,
// per-node TEE platforms, K-Protocol key agreement, engines and consensus.
func NewNetwork(opts NetworkOptions) (*Network, error) {
	return node.NewCluster(opts)
}

// NewClient creates a client identity. Pass the network's envelope public
// key (pk_tx), or nil for public-only clients.
func NewClient(pkTx []byte) (*Client, error) {
	return core.NewClient(pkTx)
}

// AllOptimizations returns the production engine configuration.
func AllOptimizations() EngineOptions { return core.AllOptimizations() }

// CompileContract compiles CCL contract source for the chosen VM and
// returns deployable code bytes.
func CompileContract(src string, vm VMKind) ([]byte, error) {
	if vm == VMEVM {
		return ccl.CompileEVM(src)
	}
	mod, err := ccl.CompileCVM(src)
	if err != nil {
		return nil, err
	}
	return mod.Encode(), nil
}

// AddressFromBytes derives an Address from up to 20 bytes (left padded).
func AddressFromBytes(b []byte) Address { return chain.AddressFromBytes(b) }

// EncodeInput frames a method call for manual transaction construction.
func EncodeInput(method string, args ...[]byte) []byte {
	return core.EncodeInput(method, args...)
}

// OpenReceipt decrypts a confidential transaction's sealed receipt with its
// one-time key k_tx.
func OpenReceipt(sealed, ktx []byte, txHash Hash) (*Receipt, error) {
	return core.OpenReceipt(sealed, ktx, txHash)
}

// ParseSchema parses a CCLe confidentiality schema (the IDL of Listing 1).
func ParseSchema(src string) (*Schema, error) { return ccle.ParseSchema(src) }

// CCLe dynamic values and codec, for building and reading
// field-level-confidential data off chain.
type (
	// Value is a dynamic CCLe value tree.
	Value = ccle.Value
	// Cipher encrypts confidential CCLe fields.
	Cipher = ccle.Cipher
	// AEADCipher is the production AES-256-GCM Cipher.
	AEADCipher = ccle.AEADCipher
)

// CCLe value constructors.
var (
	// Int64 makes an integer value.
	Int64 = ccle.Int64
	// Str makes a string value.
	Str = ccle.Str
	// TableVal makes a composite value.
	TableVal = ccle.TableVal
	// VecVal makes a vector value.
	VecVal = ccle.VecVal
	// MapVal makes a map value.
	MapVal = ccle.MapVal
)

// EncodeValue serializes a value tree under a schema, sealing confidential
// fields with the cipher.
func EncodeValue(s *Schema, v *Value, cipher Cipher) ([]byte, error) {
	return ccle.Encode(s, v, cipher)
}

// DecodeValue parses CCLe wire bytes. With a nil cipher, confidential
// fields decode as redacted placeholders — the auditor's view.
func DecodeValue(s *Schema, data []byte, cipher Cipher) (*Value, error) {
	return ccle.Decode(s, data, cipher)
}

// IsRedacted reports whether a decoded value is an unreadable confidential
// field.
func IsRedacted(v *Value) bool { return v != nil && v.Kind == ccle.ValRedacted }

// Receipt access authorization (§3.2.3): a third party asks the engine's
// pre-defined chain code for a transaction's sealed receipt; the target
// contract's `authorize` rule decides, and approved data is re-sealed to
// the requester's delegate key.
type (
	// AccessRequest asks for receipt (and optionally raw-tx) access.
	AccessRequest = core.AccessRequest
	// AccessGrant is the approved, requester-sealed response.
	AccessGrant = core.AccessGrant
	// DelegateKey is a requester-held key pair that grants are sealed to.
	DelegateKey = crypto.EnvelopeKey
)

// ErrAccessDenied is returned when the contract's rule rejects a request.
var ErrAccessDenied = core.ErrAccessDenied

// NewDelegateKey creates a requester key pair for receiving access grants.
func NewDelegateKey() (*DelegateKey, error) { return crypto.GenerateEnvelopeKey() }

// OpenGrantedReceipt opens a granted receipt with the delegate key.
func OpenGrantedReceipt(key *DelegateKey, sealed []byte) (*Receipt, error) {
	return core.OpenGrantedReceipt(key, sealed)
}

// OpenGrantedRawTx opens a granted raw transaction body.
func OpenGrantedRawTx(key *DelegateKey, sealed []byte) (*chain.RawTx, error) {
	return core.OpenGrantedRawTx(key, sealed)
}
