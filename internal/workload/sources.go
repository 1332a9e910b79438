// Package workload provides the three evaluation workloads of the paper —
// the four Synthetic contracts of Figure 10, the ABS asset-transfer
// contract of Figures 9/12 (in both Flatbuffers-style and JSON encodings,
// for the OPT2 ablation), and the hierarchical SCF-AR contract suite of
// Figure 8 / Table 1 — together with their input generators. Every contract
// is written once in CCL and compiled for both CONFIDE-VM and the EVM.
package workload

// cclPrelude holds helper functions shared by the workload contracts:
// little-endian readers for the call-input framing, byte-string equality,
// and a scanning parser for the generators' flat JSON (string keys and
// values, no nesting, no escapes).
const cclPrelude = `
fn u16at(p) -> int { return load8(p) + (load8(p + 1) << 8); }
fn u32at(p) -> int {
	return load8(p) + (load8(p+1) << 8) + (load8(p+2) << 16) + (load8(p+3) << 24);
}

// arg returns a pointer to argument #idx's u32 length header within the
// framed call input at buf.
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

fn streq(a, b, n) -> int {
	let i = 0;
	while i < n {
		if load8(a + i) != load8(b + i) { return 0; }
		i = i + 1;
	}
	return 1;
}

// json_get scans {"k":"v",...} for key and copies its value into out,
// returning the value length, or -1 when absent.
fn json_get(p, n, key, klen, out, outcap) -> int {
	let i = 1;
	while i < n {
		while i < n && load8(p + i) != 34 { i = i + 1; }
		if i >= n { return 0 - 1; }
		let ks = i + 1;
		i = ks;
		while i < n && load8(p + i) != 34 { i = i + 1; }
		let ke = i;
		i = i + 1;
		while i < n && load8(p + i) != 58 { i = i + 1; }
		i = i + 1;
		while i < n && load8(p + i) != 34 { i = i + 1; }
		let vs = i + 1;
		i = vs;
		while i < n && load8(p + i) != 34 { i = i + 1; }
		let ve = i;
		i = i + 1;
		if ke - ks == klen {
			if streq(p + ks, key, klen) {
				let m = ve - vs;
				if m > outcap { m = outcap; }
				memcpy(out, p + vs, m);
				return m;
			}
		}
	}
	return 0 - 1;
}

// json_join concatenates every value in the JSON object into dst,
// returning the total length (the string-concatenation workload core).
fn json_join(p, n, dst) -> int {
	let i = 1;
	let w = 0;
	while i < n {
		while i < n && load8(p + i) != 58 { i = i + 1; } // colon
		i = i + 1;
		while i < n && load8(p + i) != 34 { i = i + 1; }
		let vs = i + 1;
		i = vs;
		while i < n && load8(p + i) != 34 { i = i + 1; }
		let m = i - vs;
		memcpy(dst + w, p + vs, m);
		w = w + m;
		i = i + 1;
		// skip to next pair (comma) or end
		while i < n && load8(p + i) != 44 && load8(p + i) != 125 { i = i + 1; }
		if i >= n || load8(p + i) == 125 { return w; }
	}
	return w;
}

// parse_uint reads an ASCII decimal number.
fn parse_uint(p, n) -> int {
	let v = 0;
	let i = 0;
	while i < n {
		v = v * 10 + (load8(p + i) - 48);
		i = i + 1;
	}
	return v;
}

// risk_score runs two amortization-weighted passes over an asset body —
// the per-asset compute step of the production transfer contract.
fn risk_score(p, n, amt) -> int {
	let score = amt & 65535;
	let r = 0;
	while r < 2 {
		let i = 0;
		while i < n {
			score = (score * 31 + load8(p + i) + r) & 16777215;
			i = i + 1;
		}
		r = r + 1;
	}
	return score;
}
`

// StringConcatSrc is Synthetic workload (1): join a 35-key JSON document's
// values together with a 10-byte ID into one string.
const StringConcatSrc = cclPrelude + `
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let a0 = arg(buf, 0);
	let jlen = u32at(a0);
	let j = a0 + 4;
	let a1 = arg(buf, 1);
	let idlen = u32at(a1);
	let id = a1 + 4;

	let dst = alloc(jlen + idlen);
	memcpy(dst, id, idlen);
	let w = json_join(j, jlen, dst + idlen);
	output(dst, idlen + w);
}
`

// ENotesSrc is Synthetic workload (2): deposit a 4 KB electronic note under
// its ID.
const ENotesSrc = cclPrelude + `
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let a0 = arg(buf, 0); // id
	let a1 = arg(buf, 1); // 4KB note body
	storage_set(a0 + 4, u32at(a0), a1 + 4, u32at(a1));
	let ok = alloc(8);
	store8(ok, 1);
	output(ok, 1);
}
`

// CryptoHashSrc is Synthetic workload (3): 50 SHA-256 and 50 Keccak
// iterations, each over the running digest concatenated with the input
// block (so every round moves bytes, as a real commitment chain does).
const CryptoHashSrc = cclPrelude + `
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let a0 = arg(buf, 0);
	let dlen = u32at(a0);
	let d = a0 + 4;

	let h = alloc(32);
	let scratch = alloc(32 + dlen);
	sha256(d, dlen, h);
	let i = 0;
	while i < 49 {
		memcpy(scratch, h, 32);
		memcpy(scratch + 32, d, dlen);
		sha256(scratch, 32 + dlen, h);
		i = i + 1;
	}
	let k = 0;
	while k < 50 {
		memcpy(scratch, h, 32);
		memcpy(scratch + 32, d, dlen);
		keccak256(scratch, 32 + dlen, h);
		k = k + 1;
	}
	output(h, 32);
}
`

// JSONParseSrc is Synthetic workload (4): parse a ~60-key JSON request,
// extracting the loan, bank, borrower and asset attributes plus the first
// eight generic attributes — the per-request field set an ABS submission
// touches.
const JSONParseSrc = cclPrelude + `
fn getattr(j, jlen, idx, out) -> int {
	// attr_00 ... attr_07 key names built in place.
	let key = alloc(8);
	memcpy(key, "attr_0", 6);
	store8(key + 6, 48 + idx);
	return json_get(j, jlen, key, 7, out, 64);
}

fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let a0 = arg(buf, 0);
	let jlen = u32at(a0);
	let j = a0 + 4;

	let out = alloc(1024);
	let w = 0;
	let v1 = json_get(j, jlen, "loan_info", len("loan_info"), out, 64);
	if v1 > 0 { w = w + v1; }
	let v2 = json_get(j, jlen, "bank_info", len("bank_info"), out + w, 64);
	if v2 > 0 { w = w + v2; }
	let v3 = json_get(j, jlen, "borrower", len("borrower"), out + w, 64);
	if v3 > 0 { w = w + v3; }
	let v4 = json_get(j, jlen, "amount", len("amount"), out + w, 64);
	if v4 > 0 { w = w + v4; }
	let v5 = json_get(j, jlen, "asset_id", len("asset_id"), out + w, 64);
	if v5 > 0 { w = w + v5; }
	let i = 0;
	while i < 8 {
		let vi = getattr(j, jlen, i, out + w);
		if vi > 0 { w = w + vi; }
		i = i + 1;
	}
	output(out, w);
}
`

// ABSTransferFlatSrc is the ABS "Transfer Asset" contract (Figure 9) over
// the Flatbuffers-style flat encoding (OPT2 on): authentication, offset-
// based asset parsing, three validations (set inclusion, numeric range,
// string equality), then ~1 KB storage.
//
// Flat asset layout (generated by EncodeAssetFlat): u16 field count, then
// per field a u32 offset from the start of the data area; fields are:
// 0 asset_id, 1 institution, 2 repay_mode, 3 asset_class, 4 amount (ascii),
// 5 rate, 6 maturity, 7 originator, 8 debtor, 9 pool_id, 10 body (~1KB).
const ABSTransferFlatSrc = cclPrelude + `
fn flat_field(p, idx) -> int {
	// returns pointer to the u32 length header of field #idx
	let nf = u16at(p);
	let off = u32at(p + 2 + idx * 4);
	return p + 2 + nf * 4 + off;
}

fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let a0 = arg(buf, 0);
	let asset = a0 + 4;

	// 1. Authentication: sender must be on the transfer whitelist.
	let who = alloc(20);
	caller(who);
	let wl = alloc(32);
	let wn = storage_get("whitelist", len("whitelist"), wl, 32);
	if wn == 20 {
		if streq(wl, who, 20) == 0 { fail(); }
	}

	// 2. Asset parsing (offset-based, no scanning).
	let inst = flat_field(asset, 1);
	let repay = flat_field(asset, 2);
	let amount = flat_field(asset, 4);
	let id = flat_field(asset, 0);
	let body = flat_field(asset, 10);

	// 3. Validation.
	// inclusion: institution ∈ {bank-a, bank-b, bank-c}
	let instLen = u32at(inst);
	let okInst = 0;
	if instLen == 6 {
		if streq(inst + 4, "bank-a", 6) { okInst = 1; }
		if streq(inst + 4, "bank-b", 6) { okInst = 1; }
		if streq(inst + 4, "bank-c", 6) { okInst = 1; }
	}
	if okInst == 0 { fail(); }
	// numeric comparison: 0 < amount <= 1000000
	let amt = parse_uint(amount + 4, u32at(amount));
	if amt < 1 { fail(); }
	if amt > 1000000 { fail(); }
	// string comparison: repay-mode == "monthly"
	if u32at(repay) != 7 { fail(); }
	if streq(repay + 4, "monthly", 7) == 0 { fail(); }
	// risk scoring: rolling weighted checksum over the asset body (the
	// amortization-schedule pass of the production contract).
	let score = risk_score(body + 4, u32at(body), amt);
	if score < 0 { fail(); }

	// 4. Storage: persist the asset body under its id (~1KB), and update
	// the pool's circulation counter. Assets in the same pool contend on
	// this counter — the workload property that caps parallel execution
	// (Figure 11: 4-way ≈ 2×, 6-way ≈ 4-way).
	storage_set(id + 4, u32at(id), body + 4, u32at(body));
	let pool = flat_field(asset, 9);
	let plen = u32at(pool);
	let skey = alloc(64);
	memcpy(skey, "stats:", 6);
	memcpy(skey + 6, pool + 4, plen);
	let cnt = alloc(8);
	let cn = storage_get(skey, 6 + plen, cnt, 8);
	let c0 = 0;
	if cn > 0 { c0 = load8(cnt); }
	store8(cnt, c0 + 1);
	storage_set(skey, 6 + plen, cnt, 1);

	let ok = alloc(8);
	store8(ok, 1);
	output(ok, 1);
}
`

// ABSTransferJSONSrc is the same contract over a JSON-encoded asset (OPT2
// off): every attribute access is a full scan of the document.
const ABSTransferJSONSrc = cclPrelude + `
fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let a0 = arg(buf, 0);
	let jlen = u32at(a0);
	let j = a0 + 4;

	let who = alloc(20);
	caller(who);
	let wl = alloc(32);
	let wn = storage_get("whitelist", len("whitelist"), wl, 32);
	if wn == 20 {
		if streq(wl, who, 20) == 0 { fail(); }
	}

	let inst = alloc(64);
	let instLen = json_get(j, jlen, "institution", len("institution"), inst, 64);
	let repay = alloc(64);
	let repayLen = json_get(j, jlen, "repay_mode", len("repay_mode"), repay, 64);
	let amountS = alloc(64);
	let amountLen = json_get(j, jlen, "amount", len("amount"), amountS, 64);
	let id = alloc(64);
	let idLen = json_get(j, jlen, "asset_id", len("asset_id"), id, 64);
	let body = alloc(2048);
	let bodyLen = json_get(j, jlen, "body", len("body"), body, 2048);

	let okInst = 0;
	if instLen == 6 {
		if streq(inst, "bank-a", 6) { okInst = 1; }
		if streq(inst, "bank-b", 6) { okInst = 1; }
		if streq(inst, "bank-c", 6) { okInst = 1; }
	}
	if okInst == 0 { fail(); }
	let amt = parse_uint(amountS, amountLen);
	if amt < 1 { fail(); }
	if amt > 1000000 { fail(); }
	if repayLen != 7 { fail(); }
	if streq(repay, "monthly", 7) == 0 { fail(); }
	let score = risk_score(body, bodyLen, amt);
	if score < 0 { fail(); }

	storage_set(id, idLen, body, bodyLen);
	let pool = alloc(64);
	let plen = json_get(j, jlen, "pool_id", len("pool_id"), pool, 48);
	if plen < 0 { fail(); }
	let skey = alloc(64);
	memcpy(skey, "stats:", 6);
	memcpy(skey + 6, pool, plen);
	let cnt = alloc(8);
	let cn = storage_get(skey, 6 + plen, cnt, 8);
	let c0 = 0;
	if cn > 0 { c0 = load8(cnt); }
	store8(cnt, c0 + 1);
	storage_set(skey, 6 + plen, cnt, 1);

	let ok = alloc(8);
	store8(ok, 1);
	output(ok, 1);
}
`

// TokenSrc is a confidential token. Each balance is an 8-byte big-endian
// value under the account's 8-byte key, sealed at rest like every cell of a
// confidential contract, so the engine's disclosure receipts can state facts
// about it. Conservation rests on checked arithmetic inside the enclave: a
// transfer of more than the sender holds, or an issue that would take the
// total supply past the cap, calls fail() and writes nothing.
//
//	issue     <acct 8> <amount 8 BE> <cap 8 BE>
//	transfer  <from 8> <to 8> <amount 8 BE>
//	balance   <acct 8>                → 8-byte BE balance
//	grant     <addr 20>               grants disclosure access to an address
//	authorize <addr 20> <digest 32>   the engine's disclosure/receipt rule
const TokenSrc = cclPrelude + `
// be64 reads an 8-byte big-endian amount; one of 2^63 or more reads
// negative and is refused, so every sum below stays in range.
fn be64(p) -> int {
	let v = 0;
	let i = 0;
	while i < 8 {
		v = (v << 8) | load8(p + i);
		i = i + 1;
	}
	if v < 0 { fail(); }
	return v;
}

fn balance_of(key) -> int {
	let b = alloc(8);
	let n = storage_get(key, 8, b, 8);
	if n < 0 { return 0; } // never credited
	if n != 8 { fail(); }
	return be64(b);
}

fn put64(p, v) {
	let i = 7;
	while i >= 0 {
		store8(p + i, v & 255);
		v = v >> 8;
		i = i - 1;
	}
}

fn set_balance(key, v) {
	let b = alloc(8);
	put64(b, v);
	storage_set(key, 8, b, 8);
}

fn invoke() {
	let n = input_size();
	let buf = alloc(n + 8);
	input_read(buf, 0, n);
	let c = load8(buf + 2);
	if c == 105 { // 'i'ssue: the supply stays within the cap
		let acct = arg(buf, 0) + 4;
		let amt = be64(arg(buf, 1) + 4);
		let supply = balance_of("supply:\x00");
		if amt > be64(arg(buf, 2) + 4) - supply { fail(); }
		set_balance("supply:\x00", supply + amt);
		set_balance(acct, balance_of(acct) + amt);
	}
	if c == 116 { // 't'ransfer: the sender holds the amount
		let from = arg(buf, 0) + 4;
		let to = arg(buf, 1) + 4;
		let amtt = be64(arg(buf, 2) + 4);
		let fb = balance_of(from);
		if amtt > fb { fail(); }
		set_balance(from, fb - amtt);
		set_balance(to, balance_of(to) + amtt);
	}
	if c == 98 { // 'b'alance
		let out = alloc(8);
		put64(out, balance_of(arg(buf, 0) + 4));
		output(out, 8);
	}
	if c == 103 { // 'g'rant: allow an address to request disclosures
		let gaddr = arg(buf, 0) + 4;
		let gkey = alloc(28);
		memcpy(gkey, "acl:\x00\x00\x00\x00", 8);
		memcpy(gkey + 8, gaddr, 20);
		let one = alloc(4);
		store8(one, 1);
		storage_set(gkey, 28, one, 1);
	}
	if c == 97 { // 'a'uthorize <requester 20> <digest 32>
		let qaddr = arg(buf, 0) + 4;
		let qkey = alloc(28);
		memcpy(qkey, "acl:\x00\x00\x00\x00", 8);
		memcpy(qkey + 8, qaddr, 20);
		let tmp = alloc(4);
		let got = storage_get(qkey, 28, tmp, 4);
		let ares = alloc(4);
		if got == 1 {
			store8(ares, 1);
		} else {
			store8(ares, 0);
		}
		output(ares, 1);
	}
}
`
