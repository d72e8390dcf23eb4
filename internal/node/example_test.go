package node_test

import (
	"context"
	"fmt"

	"ndpcr/internal/compress"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// Example shows the runtime's full lifecycle: commit to NVM, background
// NDP drain with compression, node loss, restore from the I/O level.
func Example() {
	store := iostore.New(nvm.Pacer{})
	gzip1, _ := compress.Lookup("gzip", 1)
	n, err := node.New(node.Config{Job: "example", Store: store, Codec: gzip1})
	if err != nil {
		panic(err)
	}
	defer n.Close()

	snapshot := make([]byte, 64<<10) // the application's serialized state
	id, err := n.Commit(context.Background(), snapshot, node.Metadata{Step: 12})
	if err != nil {
		panic(err)
	}
	// The NDP drains in the background; wait for it here so the example
	// is deterministic.
	if err := n.WaitDurableCtx(context.Background(), id, ndp.LevelStore); err != nil {
		panic(err)
	}

	n.FailLocal() // the node dies; NVM contents are gone

	data, meta, level, err := n.Restore(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("restored %d bytes from the %s level (step %d)\n",
		len(data), level, meta.Step)
	// Output: restored 65536 bytes from the io level (step 12)
}
