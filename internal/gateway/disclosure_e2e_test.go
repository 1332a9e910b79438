package gateway_test

// End-to-end selective disclosure over the real network edge: issue a capped
// supply of a confidential token, transfer, and let the holder pull
// enclave-signed receipts about a balance — each verified offline against
// the attested pk_tx — while the refusals (ungranted, unsatisfied, unknown
// kind) reveal nothing about the value.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"confide/internal/ccl"
	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/gateway"
	"confide/internal/gateway/gwclient"
	"confide/internal/metrics"
	"confide/internal/workload"
)

var tokenAddr = chain.AddressFromBytes([]byte("gwconftoken"))

var (
	acctAlice = []byte("alice\x00\x00\x00")
	acctBob   = []byte("bob\x00\x00\x00\x00\x00")
)

func u64be(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// submitToken submits one confidential token call and returns the opened
// receipt, SPV-verified end to end.
func submitToken(t *testing.T, client *gwclient.Client, method string, args ...[]byte) *chain.Receipt {
	t.Helper()
	hash, ktx, err := client.SubmitConfidential(tokenAddr, method, args...)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	rcpt, err := client.WaitReceipt(hash, 20*time.Second)
	if err != nil {
		t.Fatalf("%s receipt: %v", method, err)
	}
	opened, err := gwclient.OpenReceipt(rcpt.Raw, ktx, hash)
	if err != nil {
		t.Fatalf("%s open receipt: %v", method, err)
	}
	return opened
}

// requestDisclosureEventually retries a disclosure request while the
// serving replica may still be catching up to the committed height.
func requestDisclosureEventually(t *testing.T, client *gwclient.Client, req gateway.DisclosureRequestBody) (*core.DisclosureReceipt, []byte) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		rcpt, hash, err := client.RequestDisclosure(req)
		if err == nil {
			return rcpt, hash
		}
		var apiErr *gwclient.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != gateway.CodeNotFound || time.Now().After(deadline) {
			t.Fatalf("disclosure %s: %v", req.Kind, err)
		}
		time.Sleep(100 * time.Millisecond) // replica lag: the cell is not committed there yet
	}
}

// wantRefusal asserts an API refusal with the given status and code whose
// text does not carry the balance.
func wantRefusal(t *testing.T, err error, status int, code, balance string) {
	t.Helper()
	var apiErr *gwclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != status || apiErr.Code != code {
		t.Fatalf("got %v, want %d %s", err, status, code)
	}
	if strings.Contains(apiErr.Detail, balance) {
		t.Fatalf("refusal reveals the value: %s", apiErr.Detail)
	}
}

func TestDisclosureEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test")
	}
	n := startNet(t, gateway.Config{})
	mod, err := ccl.CompileCVM(workload.TokenSrc)
	if err != nil {
		t.Fatal(err)
	}
	owner := chain.AddressFromBytes([]byte("own"))
	if err := n.cluster.DeployEverywhere(tokenAddr, owner, core.VMCVM, mod.Encode(), true, 1); err != nil {
		t.Fatal(err)
	}
	client := n.dial(t)
	pkTx := n.cluster.Nodes[0].ConfidentialEngine().EnvelopePublicKey()

	// The contract's authorize rule gates disclosure: grant this client's
	// address before any receipt can be requested.
	clientAddr := client.Address()
	if r := submitToken(t, client, "grant", clientAddr[:]); r.Status != chain.ReceiptOK {
		t.Fatalf("grant failed: %s", r.Output)
	}

	// Issue 5000 to alice under a total supply cap of 10000, then move
	// 1500 to bob.
	if r := submitToken(t, client, "issue", acctAlice, u64be(5000), u64be(10000)); r.Status != chain.ReceiptOK {
		t.Fatalf("issue failed: %s", r.Output)
	}
	if r := submitToken(t, client, "transfer", acctAlice, acctBob, u64be(1500)); r.Status != chain.ReceiptOK {
		t.Fatalf("transfer failed: %s", r.Output)
	}
	balance := submitToken(t, client, "balance", acctAlice)
	if balance.Status != chain.ReceiptOK || len(balance.Output) != 8 {
		t.Fatalf("balance: status %d, %d bytes", balance.Status, len(balance.Output))
	}

	// An open receipt carries the value, and it is the contract's own
	// balance output. RequestDisclosure has verified it offline already;
	// check again against the attested key, explicitly.
	open, openHash := requestDisclosureEventually(t, client, gateway.DisclosureRequestBody{
		Contract: tokenAddr[:], Key: acctAlice, Kind: "open",
	})
	if err := open.Verify(pkTx); err != nil {
		t.Fatalf("open receipt: %v", err)
	}
	if open.Value != binary.BigEndian.Uint64(balance.Output) || open.Value != 3500 {
		t.Fatalf("open receipt value %d, contract balance %x", open.Value, balance.Output)
	}
	// The receipt is fetchable by hash from the cache, re-verified offline.
	fetched, err := client.FetchDisclosure(openHash)
	if err != nil {
		t.Fatalf("fetch disclosure: %v", err)
	}
	if fetched.Kind != core.KindOpen || fetched.Hash() != open.Hash() {
		t.Fatalf("fetched %v receipt differs from the one issued", fetched.Kind)
	}

	for _, req := range []gateway.DisclosureRequestBody{
		{Contract: tokenAddr[:], Key: acctAlice, Kind: "threshold", Threshold: 1000},
		{Contract: tokenAddr[:], Key: acctBob, Kind: "interval", Lo: 1500, Hi: 1500, Verifier: []byte("auditor")},
	} {
		rcpt, _ := requestDisclosureEventually(t, client, req)
		if err := rcpt.Verify(pkTx); err != nil {
			t.Fatalf("%s receipt: %v", req.Kind, err)
		}
		if rcpt.Value != 0 {
			t.Fatalf("%s receipt carries the value", req.Kind)
		}
	}

	// An ungranted client's signed request is refused by the contract's
	// rule with a 403: authentication alone is not enough.
	outsider := n.dial(t)
	_, _, err = outsider.RequestDisclosure(gateway.DisclosureRequestBody{
		Contract: tokenAddr[:], Key: acctAlice, Kind: "threshold", Threshold: 1,
	})
	wantRefusal(t, err, http.StatusForbidden, gateway.CodeDenied, "3500")

	// The enclave does not sign a false statement: 409.
	_, _, err = client.RequestDisclosure(gateway.DisclosureRequestBody{
		Contract: tokenAddr[:], Key: acctAlice, Kind: "threshold", Threshold: 1_000_000,
	})
	wantRefusal(t, err, http.StatusConflict, gateway.CodeUnsatisfied, "3500")

	// "range" is no kind: the gateway refuses it before the enclave sees it.
	body, _ := json.Marshal(gateway.DisclosureRequestBody{Contract: tokenAddr[:], Key: acctAlice, Kind: "range"})
	resp, err := http.Post(n.urls[0]+"/v1/disclosure/request", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kind range: status %d, want 400", resp.StatusCode)
	}

	// An issue that would take the supply past its cap fails, and changes
	// no balance.
	if rc := submitToken(t, client, "issue", acctBob, u64be(5001), u64be(10000)); rc.Status != chain.ReceiptFailed {
		t.Fatalf("issue past the cap: status %d", rc.Status)
	}
	if rc := submitToken(t, client, "transfer", acctBob, acctAlice, u64be(1501)); rc.Status != chain.ReceiptFailed {
		t.Fatalf("transfer past the balance: status %d", rc.Status)
	}
	if _, _, err := client.RequestDisclosure(gateway.DisclosureRequestBody{
		Contract: tokenAddr[:], Key: acctBob, Kind: "interval", Lo: 1500, Hi: 1500,
	}); err != nil {
		t.Fatalf("bob after the failed calls: %v", err)
	}

	// The disclosure routes are first-class edge endpoints: their request
	// counters, refusal counter and latency surface through /metrics and
	// the registry Summary like every other route.
	var expo bytes.Buffer
	if err := metrics.Default().WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`confide_gateway_requests_total{endpoint="disclosure_request"}`,
		`confide_gateway_requests_total{endpoint="disclosure_get"}`,
		"confide_gateway_disclosure_receipts_total",
		"confide_gateway_disclosure_refusals_total",
		"confide_gateway_disclosure_gen_seconds",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("/metrics exposition missing %s", want)
		}
	}
	sum := metrics.Default().Summary()
	for _, want := range []string{
		"confide_gateway_disclosure_receipts_total",
		"confide_gateway_disclosure_gen_seconds",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary table missing %s", want)
		}
	}
}
