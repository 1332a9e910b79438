// Quickstart: boot a 4-node CONFIDE network, deploy a confidential
// contract, send a confidential transaction, read the sealed receipt back
// with the one-time key, and show what a node operator peeking at the
// database actually sees.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"confide"
)

// contractSrc is a minimal confidential key-value contract in CCL. The
// method selector arrives in the framed call input; values live in
// contract storage, which the platform persists only as ciphertext.
const contractSrc = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}

fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let mlen = u16at(buf);
	let argp = buf + 2 + mlen + 2;
	let alen = u32at(argp);
	let a = argp + 4;
	let c = load8(buf + 2);
	if c == 112 { // 'p'ut
		storage_set("balance", 7, a, alen);
		log("balance updated", 15);
	}
	if c == 103 { // 'g'et
		let out = alloc(256);
		let vn = storage_get("balance", 7, out, 256);
		if vn < 0 { vn = 0; }
		output(out, vn);
	}
}
`

func main() {
	// 1. Boot the network. Node 0's KM enclave generates the engine
	// secrets; the others join via mutual remote attestation (K-Protocol).
	net, err := confide.NewNetwork(confide.NetworkOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	defer net.StartDriver(0)() // the nodes' proposer loops cut every block
	fmt.Println("4-node network up; engine secrets agreed via decentralized MAP")

	// 2. Compile and deploy the contract confidentially: its code is
	// stored sealed under k_states on every node.
	addr := confide.AddressFromBytes([]byte("quickstart"))
	owner := confide.AddressFromBytes([]byte("alice"))
	code, err := confide.CompileContract(contractSrc, confide.VMCVM)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.DeployEverywhere(addr, owner, confide.VMCVM, code, true, 1); err != nil {
		log.Fatal(err)
	}

	// 3. A client seals a transaction to the network's pk_tx (T-Protocol
	// digital envelope) and submits it.
	client, err := confide.NewClient(net.EnvelopePublicKey())
	if err != nil {
		log.Fatal(err)
	}
	secret := []byte("alice-balance=1,000,000 CNY")
	tx, ktx, err := client.NewConfidentialTx(addr, "put", secret)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.Submit(tx); err != nil {
		log.Fatal(err)
	}
	if err := net.WaitIdle(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("confidential transaction committed by consensus")

	// 4. The client reads its receipt: it is stored sealed under the
	// transaction's one-time key k_tx, which only the client (or a
	// delegate it authorizes) holds.
	sealed, found, err := net.Nodes[2].StoredReceipt(tx.Hash())
	if err != nil || !found {
		log.Fatalf("receipt not found: %v", err)
	}
	receipt, err := confide.OpenReceipt(sealed, ktx, tx.Hash())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("receipt opened with k_tx: status=%d logs=%q\n", receipt.Status, receipt.Logs)

	// 5. What does a curious node operator see? Scan node 3's database for
	// the plaintext: it appears nowhere — state, code and receipt are all
	// ciphertext (D-Protocol / T-Protocol).
	leaks := 0
	net.Nodes[3].Store().Iterate(nil, func(k, v []byte) bool {
		if bytes.Contains(v, secret) {
			leaks++
		}
		return true
	})
	fmt.Printf("database scan on node 3: %d plaintext leaks (the balance is ciphertext at rest)\n", leaks)

	// 6. And the rightful owner can still read it through the contract.
	getTx, _, err := client.NewConfidentialTx(addr, "get")
	if err != nil {
		log.Fatal(err)
	}
	res, err := net.Nodes[0].ConfidentialEngine().Execute(getTx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contract read-back inside the enclave: %q\n", res.Receipt.Output)
}
