// Receipt delegation (§3.2.3): a regulator needs to inspect a specific
// confidential transaction. The owner does not hand out keys; instead the
// contract carries an owner-maintained access rule, and the engine's
// pre-defined chain code consults it inside the enclave — recovering k_tx
// with the enclave's sk_tx, decrypting the receipt, and re-sealing it to
// the regulator's own delegate key. The one-time key never leaves the
// enclave; unauthorized parties get nothing.
package main

import (
	"fmt"
	"log"
	"time"

	"confide"
)

// dealSrc records deals confidentially and carries the access rule: the
// owner grants per-requester access; `authorize` approves known requesters.
const dealSrc = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}
fn arg(buf, idx) -> int {
	let mlen = u16at(buf);
	let p = buf + 2 + mlen + 2;
	let i = 0;
	while i < idx {
		p = p + 4 + u32at(p);
		i = i + 1;
	}
	return p;
}
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let c = load8(buf + 2);
	let a0 = arg(buf, 0);
	if c == 114 { // 'r'ecord <deal bytes>
		storage_set("deal", 4, a0 + 4, u32at(a0));
		log("deal recorded", 13);
	}
	if c == 103 { // 'g'rant <requester(20)>
		let one = alloc(4);
		store8(one, 1);
		storage_set(a0 + 4, 20, one, 1);
		log("access granted", 14);
	}
	if c == 97 { // 'a'uthorize <requester(20)> <txhash(32)> — the rule
		let tmp = alloc(4);
		let ok = storage_get(a0 + 4, 20, tmp, 4);
		let res = alloc(4);
		if ok == 1 { store8(res, 1); } else { store8(res, 0); }
		output(res, 1);
	}
}
`

func main() {
	net, err := confide.NewNetwork(confide.NetworkOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	defer net.StartDriver(0)() // the nodes' proposer loops cut every block

	addr := confide.AddressFromBytes([]byte("deal-registry"))
	ownerAddr := confide.AddressFromBytes([]byte("desk-owner"))
	code, err := confide.CompileContract(dealSrc, confide.VMCVM)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.DeployEverywhere(addr, ownerAddr, confide.VMCVM, code, true, 1); err != nil {
		log.Fatal(err)
	}
	owner, err := confide.NewClient(net.EnvelopePublicKey())
	if err != nil {
		log.Fatal(err)
	}

	run := func(method string, args ...[]byte) *confide.Tx {
		tx, _, err := owner.NewConfidentialTx(addr, method, args...)
		if err != nil {
			log.Fatal(err)
		}
		if err := net.Submit(tx); err != nil {
			log.Fatal(err)
		}
		if err := net.WaitIdle(10 * time.Second); err != nil {
			log.Fatal(err)
		}
		return tx
	}

	// 1. The desk records a confidential deal.
	dealTx := run("record", []byte("sell 10,000 bonds @98.75 to counterparty-X"))
	fmt.Println("confidential deal committed; receipt sealed under its one-time key")

	// 2. A regulator (with its own delegate key, never the owner's keys)
	// asks for the receipt — and is refused: no grant exists yet.
	regulator, _ := confide.NewClient(nil)
	regulatorKey, err := confide.NewDelegateKey()
	if err != nil {
		log.Fatal(err)
	}
	engine := net.Nodes[0].ConfidentialEngine()
	_, err = engine.HandleAccessRequest(confide.AccessRequest{
		OrigTx:       dealTx,
		Requester:    regulator.Address(),
		RequesterPub: regulatorKey.Public(),
	})
	fmt.Printf("regulator before grant: %v\n", err)

	// 3. The owner grants access on chain (updating the rule's state).
	run("grant", addrBytes(regulator.Address()))
	fmt.Println("owner granted access to the regulator via the contract rule")

	// 4. The same request now succeeds: the enclave re-seals the receipt
	// (and the raw transaction) to the regulator's delegate key.
	grant, err := engine.HandleAccessRequest(confide.AccessRequest{
		OrigTx:       dealTx,
		Requester:    regulator.Address(),
		RequesterPub: regulatorKey.Public(),
		IncludeRawTx: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	receipt, err := confide.OpenGrantedReceipt(regulatorKey, grant.SealedReceipt)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := confide.OpenGrantedRawTx(regulatorKey, grant.SealedRawTx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regulator reads the receipt: status=%d logs=%q\n", receipt.Status, receipt.Logs)
	fmt.Printf("regulator reads the raw deal: method=%s payload=%q\n", raw.Method, raw.Args[0])

	// 5. Another party without a grant is still refused.
	outsider, _ := confide.NewClient(nil)
	outsiderKey, _ := confide.NewDelegateKey()
	if _, err := engine.HandleAccessRequest(confide.AccessRequest{
		OrigTx:       dealTx,
		Requester:    outsider.Address(),
		RequesterPub: outsiderKey.Public(),
	}); err != nil {
		fmt.Printf("outsider still denied: %v\n", err)
	}
}

func addrBytes(a confide.Address) []byte { return a[:] }
