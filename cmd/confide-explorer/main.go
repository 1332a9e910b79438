// Command confide-explorer is an offline blockchain explorer: it opens a
// node's durable store directly (no node process needed) and walks the
// chain — blocks, transactions, receipt visibility. It sees exactly what a
// node operator sees: confidential payloads, state and receipts appear only
// as ciphertext, which is the point.
//
// Usage:
//
//	confide-explorer -store path/to/node-0            # chain summary
//	confide-explorer -store path/to/node-0 -block 3   # one block in detail
//	confide-explorer -store path/to/node-0 -keys      # storage key census
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"confide/internal/chain"
	"confide/internal/core"
	"confide/internal/node"
	"confide/internal/storage"
)

func main() {
	storeDir := flag.String("store", "", "node store directory (LSM)")
	blockNum := flag.Int64("block", -1, "show one block in detail")
	keys := flag.Bool("keys", false, "print a census of storage namespaces")
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "usage: confide-explorer -store <dir> [-block N] [-keys]")
		os.Exit(2)
	}
	store, err := storage.OpenLSM(*storeDir, storage.LSMOptions{})
	if err != nil {
		fatal(err)
	}
	defer store.Close()

	switch {
	case *keys:
		census(store)
	case *blockNum >= 0:
		showBlock(store, uint64(*blockNum))
	default:
		summary(store)
	}
}

func loadBlock(store storage.KVStore, height uint64) (*chain.Block, bool) {
	raw, found, err := store.Get(node.BlockKey(height))
	if err != nil || !found {
		return nil, false
	}
	block, err := chain.DecodeBlock(raw)
	if err != nil {
		return nil, false
	}
	return block, true
}

func summary(store storage.KVStore) {
	fmt.Printf("%-8s %-10s %-5s %-6s %s\n", "height", "hash", "txs", "conf", "tx-root")
	height := uint64(0)
	totalTxs, totalConf := 0, 0
	for {
		block, ok := loadBlock(store, height)
		if !ok {
			break
		}
		conf := 0
		for _, tx := range block.Txs {
			if tx.Type == chain.TxTypeConfidential {
				conf++
			}
		}
		totalTxs += len(block.Txs)
		totalConf += conf
		h := block.Hash()
		fmt.Printf("%-8d %-10s %-5d %-6d %s…\n",
			height, short(h[:]), len(block.Txs), conf, short(block.Header.TxRoot[:]))
		height++
	}
	fmt.Printf("\n%d blocks, %d transactions (%d confidential)\n", height, totalTxs, totalConf)
}

func showBlock(store storage.KVStore, height uint64) {
	block, ok := loadBlock(store, height)
	if !ok {
		fatal(fmt.Errorf("no block at height %d", height))
	}
	h := block.Hash()
	fmt.Printf("block %d\n  hash      %x\n  prev      %x\n  tx-root   %x\n  proposer  node %d\n  txs       %d\n\n",
		height, h[:], block.Header.PrevHash[:], block.Header.TxRoot[:], block.Header.Proposer, len(block.Txs))
	for i, tx := range block.Txs {
		hash := tx.Hash()
		fmt.Printf("  tx %d: %x\n", i, hash[:])
		if tx.Type == chain.TxTypeConfidential {
			fmt.Printf("    type:    confidential (T-Protocol envelope, %d bytes — opaque)\n", len(tx.Payload))
		} else {
			if raw, err := chain.DecodeRawTx(tx.Payload); err == nil {
				fmt.Printf("    type:    public\n    from:    %s\n    to:      %s\n    method:  %s (%d args)\n",
					raw.From, raw.Contract, raw.Method, len(raw.Args))
			}
		}
		if sealed, found, _ := core.ReadReceipt(store, hash); found {
			if rpt, err := chain.DecodeReceipt(sealed); err == nil {
				fmt.Printf("    receipt: public, status %d, %d log(s)\n", rpt.Status, len(rpt.Logs))
			} else {
				fmt.Printf("    receipt: sealed under k_tx (%d bytes — owner-only)\n", len(sealed))
			}
		}
	}
}

func census(store storage.KVStore) {
	counts := map[string]int{}
	bytes := map[string]int{}
	store.Iterate(nil, func(k, v []byte) bool {
		ns := "other"
		if i := strings.IndexByte(string(k), '/'); i > 0 {
			ns = string(k[:i])
		}
		counts[ns]++
		bytes[ns] += len(v)
		return true
	})
	names := map[string]string{
		"blk": "blocks", "st": "contract state", "cd": "contract code", "rc": "receipts",
	}
	fmt.Printf("%-16s %8s %12s\n", "namespace", "keys", "bytes")
	for ns, n := range counts {
		label := ns
		if friendly, ok := names[ns]; ok {
			label = fmt.Sprintf("%s (%s)", ns, friendly)
		}
		fmt.Printf("%-16s %8d %12d\n", label, n, bytes[ns])
	}
}

func short(b []byte) string { return hex.EncodeToString(b[:4]) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "confide-explorer:", err)
	os.Exit(1)
}
