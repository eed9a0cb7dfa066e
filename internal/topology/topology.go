package topology

import (
	"errors"
	"fmt"
	"time"
)

// Architecture is the replication family of a SCADA configuration.
type Architecture int

// Architecture families.
const (
	// SingleSite runs all masters in one control center ("2", "6").
	SingleSite Architecture = iota + 1
	// PrimaryBackup runs the primary site hot and a second site as a
	// cold backup that takes minutes to activate ("2-2", "6-6").
	PrimaryBackup
	// ActiveReplication runs replicas in several sites participating in
	// one replication protocol with no activation delay ("6+6+6").
	ActiveReplication
)

// String implements fmt.Stringer.
func (a Architecture) String() string {
	switch a {
	case SingleSite:
		return "single-site"
	case PrimaryBackup:
		return "primary-backup"
	case ActiveReplication:
		return "active-replication"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// SiteRole describes a site's function within a configuration.
type SiteRole int

// Site roles.
const (
	// RolePrimary is the primary control center.
	RolePrimary SiteRole = iota + 1
	// RoleColdBackup is a cold-backup control center (PrimaryBackup
	// architectures only).
	RoleColdBackup
	// RoleActive is an always-active replication site (second control
	// center or data center in ActiveReplication architectures).
	RoleActive
)

// String implements fmt.Stringer.
func (r SiteRole) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleColdBackup:
		return "cold-backup"
	case RoleActive:
		return "active"
	default:
		return fmt.Sprintf("SiteRole(%d)", int(r))
	}
}

// Site is one control site in a configuration.
type Site struct {
	// AssetID identifies the asset hosting the site.
	AssetID string
	// Role is the site's function.
	Role SiteRole
	// Replicas is the number of SCADA masters/replicas at the site.
	Replicas int
}

// DefaultColdActivationDelay is the cold-backup activation time
// ("on the order of minutes", paper §IV-A).
const DefaultColdActivationDelay = 5 * time.Minute

// Config is one SCADA system configuration. The zero value is invalid;
// use the constructors or fill every field and call Validate.
type Config struct {
	// Name is the paper's label, e.g. "6+6+6".
	Name string
	// Arch is the architecture family.
	Arch Architecture
	// Sites lists the control sites in priority order: primary first,
	// then the backup/second control center, then data centers. The
	// worst-case attacker uses this order (paper §V-B rule 2).
	Sites []Site
	// IntrusionsTolerated is f: the number of simultaneously compromised
	// replicas the system withstands without losing safety (0 for the
	// crash-tolerant "2"/"2-2").
	IntrusionsTolerated int
	// RecoverySlots is k: replicas that may be concurrently offline for
	// proactive recovery. Intrusion-tolerant sites size n = 3f + 2k + 1.
	RecoverySlots int
	// MinActiveSites is the number of simultaneously reachable sites an
	// ActiveReplication configuration needs to keep ordering updates.
	MinActiveSites int
	// ColdActivationDelay is the downtime to bring up a cold backup.
	ColdActivationDelay time.Duration
}

// Validate reports the first configuration problem found.
func (c Config) Validate() error {
	if c.Name == "" {
		return errors.New("topology: config needs a name")
	}
	if c.IntrusionsTolerated < 0 || c.RecoverySlots < 0 {
		return fmt.Errorf("topology: %s: negative fault-model parameters", c.Name)
	}
	for i, s := range c.Sites {
		if s.AssetID == "" {
			return fmt.Errorf("topology: %s: site %d needs an asset ID", c.Name, i)
		}
		// A linear scan: configurations have a handful of sites, and
		// the engine validates one per evaluated cell.
		if c.SiteIndex(s.AssetID) < i {
			return fmt.Errorf("topology: %s: duplicate site asset %q", c.Name, s.AssetID)
		}
		if s.Replicas <= 0 {
			return fmt.Errorf("topology: %s: site %q needs at least one replica", c.Name, s.AssetID)
		}
		if s.Role < RolePrimary || s.Role > RoleActive {
			return fmt.Errorf("topology: %s: site %q has unknown role %d", c.Name, s.AssetID, int(s.Role))
		}
	}
	switch c.Arch {
	case SingleSite:
		if len(c.Sites) != 1 {
			return fmt.Errorf("topology: %s: single-site needs exactly 1 site, has %d", c.Name, len(c.Sites))
		}
		if c.Sites[0].Role != RolePrimary {
			return fmt.Errorf("topology: %s: single site must be primary", c.Name)
		}
	case PrimaryBackup:
		if len(c.Sites) != 2 {
			return fmt.Errorf("topology: %s: primary-backup needs exactly 2 sites, has %d", c.Name, len(c.Sites))
		}
		if c.Sites[0].Role != RolePrimary || c.Sites[1].Role != RoleColdBackup {
			return fmt.Errorf("topology: %s: primary-backup needs primary then cold-backup", c.Name)
		}
		if c.ColdActivationDelay <= 0 {
			return fmt.Errorf("topology: %s: primary-backup needs a positive activation delay", c.Name)
		}
	case ActiveReplication:
		// Two sites is the degenerate minimum: the replication protocol
		// needs a second site to order updates with (NewConfigKSite's
		// k = 2 member); one site would be SingleSite in disguise.
		if len(c.Sites) < 2 {
			return fmt.Errorf("topology: %s: active replication needs >= 2 sites, has %d", c.Name, len(c.Sites))
		}
		if c.MinActiveSites < 2 || c.MinActiveSites > len(c.Sites) {
			return fmt.Errorf("topology: %s: MinActiveSites %d out of range [2, %d]",
				c.Name, c.MinActiveSites, len(c.Sites))
		}
		for i, s := range c.Sites {
			want := RoleActive
			if i == 0 {
				want = RolePrimary
			}
			if s.Role != want {
				return fmt.Errorf("topology: %s: active-replication site %d must be %v", c.Name, i, want)
			}
		}
	default:
		return fmt.Errorf("topology: %s: unknown architecture %d", c.Name, int(c.Arch))
	}
	// Intrusion-tolerant sizing: every site must host n >= 3f + 2k + 1
	// replicas (Sousa et al.), so that a single site retains safety and
	// liveness under f intrusions with k replicas recovering.
	if c.IntrusionsTolerated > 0 && c.Arch != ActiveReplication {
		need := 3*c.IntrusionsTolerated + 2*c.RecoverySlots + 1
		for _, s := range c.Sites {
			if s.Replicas < need {
				return fmt.Errorf("topology: %s: site %q has %d replicas, intrusion tolerance needs >= %d",
					c.Name, s.AssetID, s.Replicas, need)
			}
		}
	}
	return nil
}

// TotalReplicas returns the number of replicas across all sites.
func (c Config) TotalReplicas() int {
	var n int
	for _, s := range c.Sites {
		n += s.Replicas
	}
	return n
}

// SiteIndex returns the index of the site hosted by the asset, or -1.
func (c Config) SiteIndex(assetID string) int {
	for i, s := range c.Sites {
		if s.AssetID == assetID {
			return i
		}
	}
	return -1
}

// IntrusionTolerant reports whether the configuration survives at least
// one server intrusion.
func (c Config) IntrusionTolerant() bool { return c.IntrusionsTolerated > 0 }

// NewConfig2 returns the industry-standard single-control-center
// configuration "2": a primary SCADA master with a hot backup in one
// site. Tolerates a master crash; no disaster or intrusion tolerance.
func NewConfig2(site string) Config {
	return Config{
		Name: "2",
		Arch: SingleSite,
		Sites: []Site{
			{AssetID: site, Role: RolePrimary, Replicas: 2},
		},
	}
}

// NewConfig22 returns the industry-standard primary/cold-backup
// configuration "2-2": two masters in the primary site and two in a
// cold-backup site activated after a delay.
func NewConfig22(primary, backup string) Config {
	return Config{
		Name: "2-2",
		Arch: PrimaryBackup,
		Sites: []Site{
			{AssetID: primary, Role: RolePrimary, Replicas: 2},
			{AssetID: backup, Role: RoleColdBackup, Replicas: 2},
		},
		ColdActivationDelay: DefaultColdActivationDelay,
	}
}

// NewConfig6 returns the intrusion-tolerant single-site configuration
// "6": six replicas (3f + 2k + 1 with f = k = 1) in one control center.
func NewConfig6(site string) Config {
	return Config{
		Name: "6",
		Arch: SingleSite,
		Sites: []Site{
			{AssetID: site, Role: RolePrimary, Replicas: 6},
		},
		IntrusionsTolerated: 1,
		RecoverySlots:       1,
	}
}

// NewConfig66 returns the intrusion-tolerant primary/cold-backup
// configuration "6-6".
func NewConfig66(primary, backup string) Config {
	return Config{
		Name: "6-6",
		Arch: PrimaryBackup,
		Sites: []Site{
			{AssetID: primary, Role: RolePrimary, Replicas: 6},
			{AssetID: backup, Role: RoleColdBackup, Replicas: 6},
		},
		IntrusionsTolerated: 1,
		RecoverySlots:       1,
		ColdActivationDelay: DefaultColdActivationDelay,
	}
}

// NewConfig666 returns the network-attack-resilient intrusion-tolerant
// configuration "6+6+6": six active replicas in each of two control
// centers and a data center, continuing operation with no interruption
// as long as two of the three sites are reachable.
func NewConfig666(primary, second, dataCenter string) Config {
	return Config{
		Name: "6+6+6",
		Arch: ActiveReplication,
		Sites: []Site{
			{AssetID: primary, Role: RolePrimary, Replicas: 6},
			{AssetID: second, Role: RoleActive, Replicas: 6},
			{AssetID: dataCenter, Role: RoleActive, Replicas: 6},
		},
		IntrusionsTolerated: 1,
		RecoverySlots:       1,
		MinActiveSites:      2,
	}
}

// Placement binds the paper's five configurations to concrete sites.
type Placement struct {
	// Primary hosts the (first) control center.
	Primary string
	// Second hosts the backup/second control center.
	Second string
	// DataCenter hosts the third site of "6+6+6".
	DataCenter string
}

// StandardConfigs returns the paper's five configurations for a
// placement, in the paper's presentation order.
func StandardConfigs(p Placement) ([]Config, error) {
	if p.Primary == "" || p.Second == "" || p.DataCenter == "" {
		return nil, errors.New("topology: placement needs primary, second, and data center")
	}
	configs := []Config{
		NewConfig2(p.Primary),
		NewConfig22(p.Primary, p.Second),
		NewConfig6(p.Primary),
		NewConfig66(p.Primary, p.Second),
		NewConfig666(p.Primary, p.Second, p.DataCenter),
	}
	for _, c := range configs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	return configs, nil
}
