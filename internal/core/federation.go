package core

import (
	"fmt"
	"strconv"
	"strings"

	"cloud4home/internal/cloudsim"
	"cloud4home/internal/objstore"
	"cloud4home/internal/policy"
)

// cloudBackend resolves the backend for one TargetCloud placement. With
// no policy configured it is the default cloud and the metadata Backend
// field stays empty (the pre-federation record shape); with a policy it
// snapshots the roster into deterministic BackendInfo rows (attachment
// order, pure estimates) and records the chosen backend's name.
func (n *Node) cloudBackend(obj objstore.Object) (cloudsim.Backend, string, error) {
	pol := n.home.cfg.Backend
	if pol == nil {
		cloud := n.home.Cloud()
		if cloud == nil {
			return nil, "", ErrNoCloud
		}
		return cloud, "", nil
	}
	roster := n.home.Backends()
	if len(roster) == 0 {
		return nil, "", ErrNoCloud
	}
	infos := make([]policy.BackendInfo, len(roster))
	for i, b := range roster {
		p := b.Profile()
		infos[i] = policy.BackendInfo{
			Name:            b.Name(),
			EstStore:        b.EstimateStore(n.nic, obj.Size),
			EstFetch:        b.EstimateFetch(n.nic, obj.Size),
			StorePerGBMonth: p.StorePerGBMonth,
			PutPerGB:        p.PutPerGB,
			GetPerGB:        p.GetPerGB,
			PerRequest:      p.PerRequest,
			Durability:      p.Durability,
		}
	}
	idx, err := pol.Choose(obj, infos)
	if err != nil {
		return nil, "", fmt.Errorf("core: store %q: %w", obj.Name, err)
	}
	if idx < 0 || idx >= len(roster) {
		return nil, "", fmt.Errorf("core: store %q: policy %s chose backend %d of %d",
			obj.Name, pol.Name(), idx, len(roster))
	}
	return roster[idx], roster[idx].Name(), nil
}

// cloudProbe asks a backend whether it holds an object via a charged
// Stat HEAD round trip — the only probe the data path may use. The free
// Has oracle stays reserved for tests and seeding checks; a real
// deployment cannot ask S3 anything without burning a WAN round trip.
func (n *Node) cloudProbe(b cloudsim.Backend, name string) bool {
	n.ops.CloudProbes++
	_, err := b.Stat(n.nic, name)
	return err == nil
}

// shardSuffix marks coded-shard object names: "<parent>#shard.<index>".
const shardSuffix = "#shard."

// shardName returns the bin-level object name for one coded shard.
func shardName(parent string, idx int) string {
	return parent + shardSuffix + strconv.Itoa(idx)
}

// parseShardName splits a shard object name into parent and index.
func parseShardName(name string) (parent string, idx int, ok bool) {
	i := strings.LastIndex(name, shardSuffix)
	if i < 0 {
		return "", 0, false
	}
	digits := name[i+len(shardSuffix):]
	idx, err := strconv.Atoi(digits)
	if err != nil || idx < 0 || strconv.Itoa(idx) != digits {
		return "", 0, false // only shardName's own canonical form parses
	}
	return name[:i], idx, true
}

// shardObject builds the bin-level object for one coded shard of parent.
func shardObject(parent objstore.Object, idx int, shardSize int64) objstore.Object {
	return objstore.Object{
		Name:  shardName(parent.Name, idx),
		Type:  parent.Type,
		Size:  shardSize,
		Owner: parent.Owner,
	}
}
