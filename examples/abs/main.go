// Asset-backed securitization (ABS) on CONFIDE, the paper's Figure 9
// workflow: transfer-asset transactions carry a structured asset record,
// the contract authenticates the sender, parses and validates the asset,
// and persists it. The asset's data model is declared in CCLe (the
// confidential smart-contract language extension), so only the sensitive
// attributes are encrypted — rate and debtor stay private while the asset
// class and maturity remain auditable.
package main

import (
	"fmt"
	"log"
	"time"

	"confide"
)

// assetSchema is the ABS asset data model in CCLe (Listing 1 syntax): the
// pricing and counterparty details are confidential; the structural
// attributes are public for auditors and rating agencies.
const assetSchema = `
attribute "map";
attribute "confidential";

table AssetPool {
  pool_id: string;
  originator: string;
  asset_map: [Asset](map);
}

table Asset {
  asset_id: string;
  asset_class: string;
  maturity: string;
  amount: ulong(confidential);
  rate: string(confidential);
  debtor: string(confidential);
}

root_type AssetPool;
`

// depotSrc stores each submitted (CCLe-encoded) pool snapshot under its
// first argument.
const depotSrc = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let mlen = u16at(buf);
	let a0 = buf + 2 + mlen + 2;
	let klen = u32at(a0);
	let a1 = a0 + 4 + klen;
	let c = load8(buf + 2);
	if c == 112 { // 'p'ut <key> <blob>
		storage_set(a0 + 4, klen, a1 + 4, u32at(a1));
	}
	if c == 103 { // 'g'et <key>
		let out = alloc(4096);
		let vn = storage_get(a0 + 4, klen, out, 4096);
		if vn < 0 { vn = 0; }
		output(out, vn);
	}
}
`

func main() {
	schema, err := confide.ParseSchema(assetSchema)
	if err != nil {
		log.Fatal(err)
	}

	net, err := confide.NewNetwork(confide.NetworkOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	defer net.StartDriver(0)() // the nodes' proposer loops cut every block

	depot := confide.AddressFromBytes([]byte("abs-depot"))
	owner := confide.AddressFromBytes([]byte("abs-issuer"))
	code, err := confide.CompileContract(depotSrc, confide.VMCVM)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.DeployEverywhere(depot, owner, confide.VMCVM, code, true, 1); err != nil {
		log.Fatal(err)
	}
	client, err := confide.NewClient(net.EnvelopePublicKey())
	if err != nil {
		log.Fatal(err)
	}

	// The issuer encodes the asset pool with CCLe: per-field encryption
	// under the issuer's data key, bound to the contract context.
	issuerKey := make([]byte, 32)
	copy(issuerKey, "abs-issuer-data-protection-key!!")
	cipher := &confide.AEADCipher{Key: issuerKey, Context: []byte("contract:abs-depot|secver:1")}

	pool := confide.TableVal(map[string]*confide.Value{
		"pool_id":    confide.Str("pool-2026-07"),
		"originator": confide.Str("bank-a"),
		"asset_map": confide.MapVal(map[string]*confide.Value{
			"asset-001": asset("asset-001", "receivable", "2026-12-31", 850_000, "0.045", "acme-manufacturing"),
			"asset-002": asset("asset-002", "receivable", "2027-03-31", 120_000, "0.052", "globex-trading"),
		}),
	})
	blob, err := confide.EncodeValue(schema, pool, cipher)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded pool snapshot: %d bytes (confidential fields sealed per-field)\n", len(blob))

	// Submit the snapshot as a confidential transaction.
	tx, _, err := client.NewConfidentialTx(depot, "put", []byte("pool-2026-07"), blob)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.Submit(tx); err != nil {
		log.Fatal(err)
	}
	if err := net.WaitIdle(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("pool snapshot committed")

	// Read it back through the contract.
	getTx, _, err := client.NewConfidentialTx(depot, "get", []byte("pool-2026-07"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := net.Nodes[1].ConfidentialEngine().Execute(getTx)
	if err != nil {
		log.Fatal(err)
	}

	// The issuer (holding the data key) sees everything.
	full, err := confide.DecodeValue(schema, res.Receipt.Output, cipher)
	if err != nil {
		log.Fatal(err)
	}
	a1 := full.Fields["asset_map"].Map["asset-001"]
	fmt.Printf("\nissuer view of asset-001: amount=%d rate=%s debtor=%s\n",
		a1.Fields["amount"].Int, a1.Fields["rate"].Str, a1.Fields["debtor"].Str)

	// A rating agency without the key still reads the public structure.
	agency, err := confide.DecodeValue(schema, res.Receipt.Output, nil)
	if err != nil {
		log.Fatal(err)
	}
	a1p := agency.Fields["asset_map"].Map["asset-001"]
	fmt.Printf("rating-agency view:       class=%s maturity=%s amount=%s rate=%s\n",
		a1p.Fields["asset_class"].Str, a1p.Fields["maturity"].Str,
		describe(a1p.Fields["amount"]), describe(a1p.Fields["rate"]))
}

func asset(id, class, maturity string, amount int64, rate, debtor string) *confide.Value {
	return confide.TableVal(map[string]*confide.Value{
		"asset_id":    confide.Str(id),
		"asset_class": confide.Str(class),
		"maturity":    confide.Str(maturity),
		"amount":      confide.Int64(amount),
		"rate":        confide.Str(rate),
		"debtor":      confide.Str(debtor),
	})
}

func describe(v *confide.Value) string {
	if confide.IsRedacted(v) {
		return "<confidential>"
	}
	return v.String()
}
