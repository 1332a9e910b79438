package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"confide/internal/chain"
	"confide/internal/gateway"
	"confide/internal/node"
)

// gateways fronts every cluster node with a live gateway so the harness's
// workload flows over real TCP, and lets the harness kill and replace
// individual edges mid-traffic. The harness certifies afterwards that commits
// only entered through the edge. Run drives it from its one loop goroutine.
type gateways struct {
	cluster *node.Cluster
	gws     []*gateway.Gateway
	http    *http.Client
}

// startGateways serves one gateway per cluster node on an ephemeral port.
func startGateways(c *node.Cluster) (*gateways, error) {
	d := &gateways{
		cluster: c,
		gws:     make([]*gateway.Gateway, len(c.Nodes)),
		http:    &http.Client{Timeout: 3 * time.Second},
	}
	for i := range c.Nodes {
		if err := d.restart(i); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// submit posts one wire transaction to node i's gateway. A definitive
// per-transaction verdict (accepted/duplicate/committed) is success; the
// harness's retry loop handles everything else.
func (d *gateways) submit(i int, tx *chain.Tx) error {
	url := d.gws[i].URL() + "/v1/submit"
	body, err := json.Marshal(gateway.SubmitRequest{Tx: tx.Encode()})
	if err != nil {
		return err
	}
	resp, err := d.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: submit rejected with HTTP %d: %s", resp.StatusCode, data)
	}
	var res gateway.SubmitResult
	if err := json.Unmarshal(data, &res); err != nil {
		return err
	}
	if res.Status == gateway.StatusRejected {
		return fmt.Errorf("chaos: submit rejected: %s", res.Error)
	}
	return nil
}

// kill tears gateway i down abruptly — connections die, no drain.
func (d *gateways) kill(i int) {
	d.gws[i].Kill()
}

// restart serves a fresh gateway (new ephemeral port) for whichever node
// currently holds slot i — a revived node is a new *node.Node.
func (d *gateways) restart(i int) error {
	gw, err := gateway.Serve(gateway.Config{Node: d.cluster.Nodes[i]})
	if err != nil {
		return err
	}
	d.gws[i] = gw
	return nil
}

// stop kills every gateway (Kill is idempotent; a failed start leaves nils).
func (d *gateways) stop() {
	for _, gw := range d.gws {
		if gw != nil {
			gw.Kill()
		}
	}
}
