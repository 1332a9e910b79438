// Supply-chain finance on CONFIDE (the paper's Figure 1 / Figure 8
// scenario): a core enterprise issues digitized account-receivable (AR)
// certificates to suppliers; suppliers split and transfer them upstream or
// finance them with a bank. Every step is a confidential transaction
// through a hierarchical contract suite — a Gateway dispatching to a
// Manager, which orchestrates an Account service — so one bank's lending
// never leaks to another.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"confide"
)

// arLedgerSrc is the AR certificate ledger: per-holder AR balances with
// issue / transfer / finance operations. It is deliberately written as a
// single readable service contract; the benchmark suite (internal/workload)
// carries the production-shaped 31-call variant.
const arLedgerSrc = `
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
fn balance(holder, hlen) -> int {
	let tmp = alloc(16);
	let n = storage_get(holder, hlen, tmp, 16);
	if n < 8 { return 0; }
	let v = 0;
	let i = 0;
	while i < 8 {
		v = v + (load8(tmp + i) << (8 * i));
		i = i + 1;
	}
	return v;
}
fn setbalance(holder, hlen, v) {
	let tmp = alloc(16);
	let i = 0;
	while i < 8 {
		store8(tmp + i, (v >> (8 * i)) & 255);
		i = i + 1;
	}
	storage_set(holder, hlen, tmp, 8);
}

fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let c = load8(buf + 2);
	let a0 = arg(buf, 0);
	let holder = a0 + 4;
	let hlen = u32at(a0);
	if c == 105 { // 'i'ssue <holder> <amount-le8>
		let amt = arg(buf, 1);
		let v = 0;
		let i = 0;
		while i < 8 {
			v = v + (load8(amt + 4 + i) << (8 * i));
			i = i + 1;
		}
		setbalance(holder, hlen, balance(holder, hlen) + v);
		log("AR issued", 9);
	}
	if c == 116 { // 't'ransfer <from> <to> <amount-le8>
		let a1 = arg(buf, 1);
		let a2 = arg(buf, 2);
		let tv = 0;
		let ti = 0;
		while ti < 8 {
			tv = tv + (load8(a2 + 4 + ti) << (8 * ti));
			ti = ti + 1;
		}
		let fb = balance(holder, hlen);
		if fb < tv { fail(); }
		setbalance(holder, hlen, fb - tv);
		setbalance(a1 + 4, u32at(a1), balance(a1 + 4, u32at(a1)) + tv);
		log("AR transferred", 14);
	}
	if c == 98 { // 'b'alance <holder>
		let out = alloc(16);
		let b = balance(holder, hlen);
		let bi = 0;
		while bi < 8 {
			store8(out + bi, (b >> (8 * bi)) & 255);
			bi = bi + 1;
		}
		output(out, 8);
	}
}
`

func amountArg(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func main() {
	net, err := confide.NewNetwork(confide.NetworkOptions{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()
	defer net.StartDriver(0)() // the nodes' proposer loops cut every block

	ledger := confide.AddressFromBytes([]byte("ar-ledger"))
	owner := confide.AddressFromBytes([]byte("core-enterprise"))
	code, err := confide.CompileContract(arLedgerSrc, confide.VMCVM)
	if err != nil {
		log.Fatal(err)
	}
	if err := net.DeployEverywhere(ledger, owner, confide.VMCVM, code, true, 1); err != nil {
		log.Fatal(err)
	}

	client, err := confide.NewClient(net.EnvelopePublicKey())
	if err != nil {
		log.Fatal(err)
	}

	// submit returns the transaction's hash and the one-time key its owner
	// keeps: the receipt is stored sealed under it and opens with nothing else.
	submit := func(method string, args ...[]byte) (confide.Hash, []byte) {
		tx, ktx, err := client.NewConfidentialTx(ledger, method, args...)
		if err != nil {
			log.Fatal(err)
		}
		if err := net.Submit(tx); err != nil {
			log.Fatal(err)
		}
		return tx.Hash(), ktx
	}
	drain := func() {
		if err := net.WaitIdle(10 * time.Second); err != nil {
			log.Fatal(err)
		}
	}
	readBalance := func(holder string) uint64 {
		tx, _, err := client.NewConfidentialTx(ledger, "balance", []byte(holder))
		if err != nil {
			log.Fatal(err)
		}
		res, err := net.Nodes[0].ConfidentialEngine().Execute(tx)
		if err != nil {
			log.Fatal(err)
		}
		return binary.LittleEndian.Uint64(res.Receipt.Output)
	}

	// The SCF life cycle of Figure 1:
	// 1. The core enterprise issues an AR certificate to supplier 1.
	fmt.Println("core enterprise issues 1,000,000 AR to supplier-1")
	submit("issue", []byte("supplier-1"), amountArg(1_000_000))
	drain()

	// 2. Supplier 1 pays its own upstream supplier by transferring part of
	// the certificate (split & circulate).
	fmt.Println("supplier-1 transfers 300,000 AR to supplier-2")
	submit("transfer", []byte("supplier-1"), []byte("supplier-2"), amountArg(300_000))
	drain()

	// 3. Supplier 2 finances early: it transfers its AR to a bank at a
	// discount; the bank's position stays confidential on chain.
	fmt.Println("supplier-2 finances: 300,000 AR to bank-A")
	submit("transfer", []byte("supplier-2"), []byte("bank-A"), amountArg(300_000))
	drain()

	// 4. An over-transfer is rejected by the contract inside the enclave.
	h, ktx := submit("transfer", []byte("supplier-1"), []byte("bank-B"), amountArg(900_000))
	drain()
	if rpt, err := net.Leader().Receipt(h, ktx); err == nil && rpt.Status == confide.ReceiptFailed {
		fmt.Println("over-transfer of 900,000 AR correctly rejected (insufficient certificate)")
	}

	fmt.Println("\nfinal AR positions (visible only inside the enclave):")
	for _, holder := range []string{"supplier-1", "supplier-2", "bank-A", "bank-B"} {
		fmt.Printf("  %-11s %10d\n", holder, readBalance(holder))
	}
	fmt.Printf("\nledger height: %d blocks; every node holds only ciphertext\n", net.Leader().Height())
}
