package main

import (
	"context"
	"fmt"
	"time"

	"objmig"
)

// Record is the payload of a Put: a short name and a fixed-size byte
// body, so a codec that helps scalars but hurts structs shows up in the
// invoke mix.
type Record struct {
	Name string
	Data []byte
}

// objState is the state of every benchmark object: a counter the Add
// calls bump, the last Put record, and a resident blob sized by the
// workload (the bytes a migration carries).
type objState struct {
	N    int64
	Rec  Record
	Blob []byte
}

const typeName = "bench-obj"

func newObjType() *objmig.Type[objState] {
	t := objmig.NewType[objState](typeName)
	objmig.HandleFunc(t, "Add", func(_ *objmig.Ctx, s *objState, d int64) (int64, error) {
		s.N += d
		return s.N, nil
	})
	objmig.HandleFunc(t, "Put", func(_ *objmig.Ctx, s *objState, r Record) (int, error) {
		s.Rec = r
		return len(r.Data), nil
	})
	objmig.HandleFunc(t, "Fill", func(_ *objmig.Ctx, s *objState, b []byte) (int, error) {
		s.Blob = b
		return len(b), nil
	})
	objmig.HandleFunc(t, "Get", func(_ *objmig.Ctx, s *objState, _ struct{}) (objState, error) {
		return *s, nil
	})
	return t
}

// cluster is one in-process cluster of benchmark nodes.
type cluster struct {
	nodes []*objmig.Node
}

// clusterOpts selects the fabric and the optional subsystems.
type clusterOpts struct {
	tcp       bool
	placement bool
	capacity  int64
	observer  objmig.Observer
}

// placementCfg is the placement configuration of every placement-enabled
// benchmark node: a fast heartbeat so drains plan on a fresh view, and
// no origin pass or shedder, so only the generator moves objects.
var placementCfg = objmig.PlacementConfig{
	Heartbeat:  25 * time.Millisecond,
	OriginPass: -1,
}

func newCluster(n int, o clusterOpts) (*cluster, error) {
	fab := objmig.NewLocalCluster()
	if o.tcp {
		fab = objmig.NewTCPCluster()
	}
	c := &cluster{}
	for i := 0; i < n; i++ {
		cfg := objmig.Config{
			ID:       objmig.NodeID(string(rune('a' + i))),
			Cluster:  fab,
			Capacity: o.capacity,
			Observer: o.observer,
		}
		if o.tcp {
			cfg.ListenAddr = "127.0.0.1:0"
		}
		nd, err := objmig.NewNode(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %s: %w", cfg.ID, err)
		}
		c.nodes = append(c.nodes, nd)
		if err := nd.RegisterType(newObjType()); err != nil {
			c.close()
			return nil, err
		}
	}
	for _, x := range c.nodes {
		for _, y := range c.nodes {
			if x != y {
				x.AddPeer(y.ID(), y.Addr())
			}
		}
	}
	if o.placement {
		if err := c.enablePlacement(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// enablePlacement starts placement on every node and waits until each
// node's view holds a sample of every peer, the precondition of a
// drain plan.
func (c *cluster) enablePlacement() error {
	for _, nd := range c.nodes {
		if err := nd.EnablePlacement(placementCfg); err != nil {
			return err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range c.nodes {
		for len(nd.LoadView()) < len(c.nodes) {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: placement view incomplete after 10s", nd.ID())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

func (c *cluster) close() {
	for _, nd := range c.nodes {
		_ = nd.Close()
	}
}

func (c *cluster) node(id objmig.NodeID) *objmig.Node {
	for _, nd := range c.nodes {
		if nd.ID() == id {
			return nd
		}
	}
	return nil
}

// stats snapshots every node's counters.
func (c *cluster) stats() []objmig.Stats {
	out := make([]objmig.Stats, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.Stats()
	}
	return out
}

// hosted is the cluster-wide number of live objects.
func (c *cluster) hosted() int64 {
	var sum int64
	for _, nd := range c.nodes {
		sum += nd.Stats().ObjectsHosted
	}
	return sum
}

// closureSet is a workload's object population: closures of one root
// and size-1 attached members, each created on the closure's node.
type closureSet struct {
	members [][]objmig.Ref  // members[c][0] is closure c's root
	host    []objmig.NodeID // closure c's current host, as the generator placed it
	flat    []objmig.Ref    // every member, closure-major
	blobs   [][]byte        // flat[i]'s resident blob
}

// populate creates closures round-robin over the nodes, fills each
// member's blob from gen and attaches every member to its root.
func (c *cluster) populate(ctx context.Context, closures, size, blobBytes int, gen *generator) (*closureSet, error) {
	cs := &closureSet{}
	for ci := 0; ci < closures; ci++ {
		nd := c.nodes[ci%len(c.nodes)]
		var ms []objmig.Ref
		for m := 0; m < size; m++ {
			ref, err := nd.Create(typeName)
			if err != nil {
				return nil, err
			}
			blob := gen.bytes(blobBytes)
			if blobBytes > 0 {
				if _, err := objmig.Call[[]byte, int](ctx, nd, ref, "Fill", blob); err != nil {
					return nil, fmt.Errorf("fill %s: %w", ref, err)
				}
			}
			if m > 0 {
				if err := nd.Attach(ctx, ms[0], ref, objmig.NoAlliance); err != nil {
					return nil, fmt.Errorf("attach %s: %w", ref, err)
				}
			}
			ms = append(ms, ref)
			cs.flat = append(cs.flat, ref)
			cs.blobs = append(cs.blobs, blob)
		}
		cs.members = append(cs.members, ms)
		cs.host = append(cs.host, nd.ID())
	}
	return cs, nil
}
