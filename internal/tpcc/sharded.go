// The sharded terminal: TPC-C over a warehouse-partitioned cluster.
//
// A sharded terminal is a Client homed on one warehouse (hence one shard)
// exactly like a classic terminal, running the same five profiles on a
// shard.Tx. The spec's remote-warehouse choices (supply warehouses for
// order lines, the customer's warehouse for payments) route by ownership
// — a "remote" warehouse on the home shard is still a purely local
// transaction, one on another shard makes the commit a cross-shard 2PC.
package tpcc

import "xssd/internal/shard"

// ShardedClient is the name the sharded terminal had while it carried its
// own copies of the profiles; callers that still declare it get a Client.
type ShardedClient = Client

// NewShardedClient creates a terminal homed on warehouse homeWID of cl,
// drawing remote warehouses at mix. All its methods must run on the home
// shard's Env. Every commit waits for its own durability, so RunMixAsync
// returns 0 here.
func NewShardedClient(cl *shard.Cluster, cfg Config, seed int64, homeWID int, mix RemoteMix) *Client {
	home := cl.Shard(cl.ShardOf(homeWID))
	c := newTerminal(home.Engine(), cfg, seed, homeWID, mix)
	c.sh = home
	return c
}
