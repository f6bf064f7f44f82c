package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/telemetry"
)

// TestRunEnergyCasesDeterministic is the acceptance criterion: two
// deterministic runs of every registered case encode byte-identical
// manifests, each carrying a populated spaa-energy/v1 section.
func TestRunEnergyCasesDeterministic(t *testing.T) {
	for _, c := range EnergyCases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			encode := func() []byte {
				man, err := RunEnergyCase(c, EnergyOptions{Deterministic: true})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := man.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			a, b := encode(), encode()
			if !bytes.Equal(a, b) {
				t.Fatalf("deterministic energy manifests differ:\n%s\n%s", a, b)
			}
			man, err := telemetry.ReadManifest(bytes.NewReader(a))
			if err != nil {
				t.Fatal(err)
			}
			r := man.Energy
			if r == nil || r.Schema != energy.Schema {
				t.Fatalf("manifest carries no energy section: %+v", man)
			}
			if r.Spikes == 0 || r.Deliveries == 0 || r.Steps == 0 {
				t.Errorf("report priced no engine events: %+v", r)
			}
			if r.ClassicOps == 0 || r.ClassicMilliPJ == 0 {
				t.Errorf("classic comparator not counted: %+v", r)
			}
			ref := r.PlatformRow(energy.ReferencePlatform)
			if ref == nil || ref.AdvantageMilli <= 1000 {
				t.Errorf("reference advantage not > 1x: %+v", ref)
			}
			if sp2 := r.PlatformRow("SpiNNaker 2"); sp2 == nil || sp2.SpikingMilliPJ != 0 || sp2.AdvantageMilli != 0 {
				t.Errorf("unpublished platform row not zero: %+v", sp2)
			}
		})
	}
}

// TestCompareEnergyGateTripsOnTariffScale is the gate's negative
// test contract: a perturbed tariff must drift against an unperturbed
// baseline even though the workload is identical.
func TestCompareEnergyGateTripsOnTariffScale(t *testing.T) {
	c := EnergyCases[0]
	base, err := RunEnergyCase(c, EnergyOptions{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	same, err := RunEnergyCase(c, EnergyOptions{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := telemetry.DiffManifests(base, same, telemetry.Tolerance{}); len(d) != 0 {
		t.Fatalf("identical runs drift: %v", d)
	}
	perturbed, err := RunEnergyCase(c, EnergyOptions{Deterministic: true, TariffScaleMilli: 1100})
	if err != nil {
		t.Fatal(err)
	}
	drifts := telemetry.DiffManifests(base, perturbed, telemetry.Tolerance{})
	if len(drifts) == 0 {
		t.Fatal("perturbed tariff passed the gate")
	}
	var sawTariff bool
	for _, drift := range drifts {
		if strings.Contains(drift.Field, "delivery_millipj") {
			sawTariff = true
		}
	}
	if !sawTariff {
		t.Errorf("tariff drift not attributed to delivery_millipj: %v", drifts)
	}
}

// TestRenderEnergyTable renders every registered case: each gets a row,
// the unpublished platform renders "-", and no advantage — including
// the sub-1x SpiNNaker 1 figure of the compiled k-hop case — rounds to
// a zero.
func TestRenderEnergyTable(t *testing.T) {
	var mans []*telemetry.Manifest
	for _, c := range EnergyCases {
		man, err := RunEnergyCase(c, EnergyOptions{Deterministic: true})
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, man)
	}
	out := RenderEnergyTable(mans)
	if !strings.Contains(out, "SpiNNaker 2") {
		t.Errorf("unpublished platform column missing:\n%s", out)
	}
	for _, c := range EnergyCases {
		if !strings.Contains(out, "\n"+c.Name+" ") {
			t.Errorf("case %s has no row:\n%s", c.Name, out)
		}
	}
	if !strings.Contains(out, "x") {
		t.Errorf("no advantage figures rendered:\n%s", out)
	}
	// The unpublished column renders "-", and a sub-1x advantage keeps
	// its digits — never a zero advantage.
	for _, field := range strings.Fields(out) {
		if field == "0.0x" || field == "0.000x" {
			t.Errorf("zero advantage rendered:\n%s", out)
		}
	}
}

// TestEnergySection pins the report's E20 contract: every Table 3
// platform appears, unpublished ones as "-" — never an advantage of 0
// divided through a row.
func TestEnergySection(t *testing.T) {
	out := EnergySection(6)
	for _, name := range energy.PlatformNames() {
		if !strings.Contains(out, "| "+name+" |") {
			t.Errorf("platform %q missing from section:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "| SpiNNaker 2 | - | - |") {
		t.Errorf("unpublished platform not rendered as '-':\n%s", out)
	}
	if strings.Contains(out, "0.0x") || strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("division artifact in section:\n%s", out)
	}
	if !strings.Contains(out, "µJ") {
		t.Errorf("no joule figures rendered:\n%s", out)
	}
}

// TestSoakCarriesEnergy: the engine workloads' soak manifests carry an
// energy section and the report aggregates J/query.
func TestSoakCarriesEnergy(t *testing.T) {
	var mu_manifests []*telemetry.Manifest
	var muLock = make(chan struct{}, 1)
	muLock <- struct{}{}
	rep, err := Soak(SoakConfig{
		Workers: 2, Iters: 4, Seed: 99, Mix: []string{"sssp", "fleet", "congest"},
		Deterministic: true,
		Submit: func(m *telemetry.Manifest) error {
			<-muLock
			mu_manifests = append(mu_manifests, m)
			muLock <- struct{}{}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnergyRuns == 0 || rep.SpikingMilliPJ == 0 || rep.ClassicMilliPJ == 0 {
		t.Fatalf("no energy aggregated: %+v", rep)
	}
	if rep.SpikingJoulesPerQuery() <= 0 || rep.ClassicJoulesPerQuery() <= 0 {
		t.Errorf("J/query aggregates zero: %v / %v", rep.SpikingJoulesPerQuery(), rep.ClassicJoulesPerQuery())
	}
	if rep.ClassicJoulesPerQuery() <= rep.SpikingJoulesPerQuery() {
		t.Errorf("classic J/query %v not above spiking %v", rep.ClassicJoulesPerQuery(), rep.SpikingJoulesPerQuery())
	}
	var withEnergy, congestRuns int64
	for _, m := range mu_manifests {
		if m.Energy != nil {
			withEnergy++
			if m.Energy.ClassicOps == 0 {
				t.Errorf("metered manifest missing classic ops: %+v", m.Energy)
			}
		}
		if m.Command == "congest" {
			congestRuns++
			if m.Energy != nil {
				t.Error("congest run (no engine half) carries an energy section")
			}
		}
	}
	if withEnergy != rep.EnergyRuns {
		t.Errorf("report counts %d energy runs, manifests carry %d", rep.EnergyRuns, withEnergy)
	}
}
