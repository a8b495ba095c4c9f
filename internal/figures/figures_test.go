package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"clgp/internal/cacti"
	"clgp/internal/dispatch"
	"clgp/internal/stats"
)

// The behaviour oracle. These are the digests of every file the figures
// emit on CI's smoke grid (gzip,mcf, 20K instructions, seed 1, 90 nm,
// figures at a 2 KB L1I), as `clgpsim figures -insts 20000 -profiles
// gzip,mcf [-seeds 3]` writes them. A CSV is pinned row by row — the
// SHA-256 of each line, header first — so a mismatch names its first
// differing row; a JSON file is pinned whole. Together they pin every byte.
//
// A failure means the emitted figures changed. If the change is a
// deliberate, documented behaviour change, the failing test prints every
// digest it got in the form below: paste it over the table and say why in
// the change's notes. There is no update flag, so a re-pin is always a
// reviewed edit of this file.
type pins map[string][]string

// pinnedSingle is shared by the plain, cold (warm-up snapshots recorded)
// and warm (snapshots restored) runs: all three must emit the same bytes.
var pinnedSingle = pins{
	"cycle_breakdown_90nm.csv": {
		"214408c26728c0f062e31cf6fc82eba0e7b7ad6cd1134d8891bc7803483b3b91",
		"67336e05336a6e15629979605b14fde6041c07c1267f9607aef0f5d8598f2c62",
		"881ba812fa903d3cdda6a2d41b918df20fba1a9d5cc4dee029af1ccda056f5df",
	},
	"cycle_breakdown_90nm.json": {
		"01a16901756cdd555284e805eefe129cd8203fcac4a52590ca7b17109a25bc60",
	},
	"figure1_ipc_vs_l1_90nm.csv": {
		"7305fd6ef1b9ca45aeaf58b5db21e13f58f8e9b84445c2dc08d8760a7da81824",
		"66d8d101cc9e9304189e95b8d7e09c9cab9c4ce6edc8283b543ad348e514779b",
		"68d5705576575bcc2ee207676bd653155a021b26a4f2dd507065f4562266f79c",
		"814ff545721e7d359872e77ae7dc21a02a903d24c5baf1c4c40a8be499306c44",
		"5e4cb0fb86c6bf48fabce54d2b67dd99fd8abd7d6e85a5f5fe2045e0fe64a4a7",
		"0b38082734154d6cfef56a04bc051a08c781a65b0d797fc8fe3bb3387946913b",
		"6b1d9788984257a5433ee7ab2bc5034c6ff1ee86cf4cc74b7ae9623873bb2156",
		"5e7905b66ea350ccfd2a09f6146e5febca1ca9765e880215c78236a43db75795",
		"683d13f8c0f1bbb693be4a033f69d1d8ff4ad87b93069d74d0d0045ce06687b3",
		"32eeac4a75494370dc37aebc7d0c341d1180fb095723be15f0fe16a3da29d2b1",
	},
	"figure1_ipc_vs_l1_90nm.json": {
		"4ae0a2044059db96fd4cb74bec2748c93f0449bc4c2451fc9dc5f887a069d258",
	},
	"figure6_ipc_90nm.csv": {
		"8880953f7d4290d64905c6696e76e0d2cc3888fd1b6e9e90c1df995c0f4ffcf3",
		"cd7e945e9456b641a293d9e13b76ad04358bdb13527071dbc74bad85694b42fc",
		"a1bd96007b0f82291ed56ba4817871d03273d5de98fe100c72b6a3e3747be109",
		"758375486fdb7fe87e7dfbdd6266be5d937a2ff61c634c091f723c34d45a433c",
	},
	"figure6_ipc_90nm.json": {
		"1ea959f8498573495880136fff011881a1164d7d443b749ba87d086c0fd589d5",
	},
	"figure7_fetch_sources_90nm.csv": {
		"5a71557d9496c67308000ba5cd7668daaf9568d6f7644666dff35a5b3313453e",
		"e7362a49b26c4287816886fde922583d28a3a8cde9cd2adfb578307833ba3de8",
		"e64e7e01257f4d093c84cbfe7a1dc8e43791f45fc7ac219b89737ce872638659",
	},
	"figure7_fetch_sources_90nm.json": {
		"b71598e2b21cea040ceec3f304cfd3a9a1dd4198c77c5b5ffc859bb61301f252",
	},
	"figure8_prefetch_sources_90nm.csv": {
		"5a71557d9496c67308000ba5cd7668daaf9568d6f7644666dff35a5b3313453e",
		"3a92366d92a661fe265529a75fc3b9efcee21d700ea6144dc9dbb91f03c5d740",
		"86757d9185c6ca5519162e2eb09f7a0dda58876abd87d39f9c80f5d7c5179a42",
	},
	"figure8_prefetch_sources_90nm.json": {
		"8eec4386b15313efa7a9383bf3fe1ec9e93567cac8fdfc2950ed5f021eeb172c",
	},
}

// pinnedSingle45 is the plain run at 45 nm.
var pinnedSingle45 = pins{
	"cycle_breakdown_45nm.csv": {
		"214408c26728c0f062e31cf6fc82eba0e7b7ad6cd1134d8891bc7803483b3b91",
		"fcdedbdf7d37794e5366031a87d4b43608346c3721823872fc6819c3d851749b",
		"752db067cbee9e8dd47454d5e3d4519871ae03946ae993038b03d7c140153dc5",
	},
	"cycle_breakdown_45nm.json": {
		"2576f4d9345dca71c6abbdc0927ff7d21f0b4f63544c5860d319c6659e024a65",
	},
	"figure1_ipc_vs_l1_45nm.csv": {
		"7305fd6ef1b9ca45aeaf58b5db21e13f58f8e9b84445c2dc08d8760a7da81824",
		"f1f8b1008e4e56cd88262a5e7cf7a1877dbdb8044a0202112b925243fecf2809",
		"fe9cd019e04f82f381cdeef84d3550bb8b6b889239d38110e4b36dfef2202376",
		"615ce00f3ab60b32f43929f9692011921dcb64eccd7cd13b0ea2d90c26395696",
		"296d56b209a9e72ac10751047dd8a85d2658dc4c17adccdbd6e4c564f288b9e3",
		"d0b1ea98d726836636fee014c701eec341ea2539f3d19aa33e16ba9ba8052da3",
		"4efb8ed4e03873f6c79c1ccf4aba313646e9ba9378f270534a72a14e4b8913e9",
		"9ccc35c554c004f54f5ff6258e583ccbe551ddff484c238ff6175412de0ebe4d",
		"d22c5678dbb2745f24019e0d3d4a60dd7b153a7b935ff60b7f4c073f8aaba3c5",
		"95876b0162e35fc366883cf38f2c3c6c75d006ae24af3cfaa8d653802862062f",
	},
	"figure1_ipc_vs_l1_45nm.json": {
		"ec161414f314c36dae24f2af33a5148e8d37ac19746395135896c99f5c743b05",
	},
	"figure6_ipc_45nm.csv": {
		"8880953f7d4290d64905c6696e76e0d2cc3888fd1b6e9e90c1df995c0f4ffcf3",
		"3c945204ce59c170640cbc35421479bb253becfb769035a1493db517913e4ccf",
		"71ba4240351336b4219f1388432eddf1efd5c9e32b1eca00cec3ad61209cc340",
		"508a08ffedce267ac23926c152818b020c3eb8260b116ed7a6eca3950fae208f",
	},
	"figure6_ipc_45nm.json": {
		"e48988451236f45cc05a817d0a56e0f1b67573d50591aaedd49106ac8d1569d4",
	},
	"figure7_fetch_sources_45nm.csv": {
		"5a71557d9496c67308000ba5cd7668daaf9568d6f7644666dff35a5b3313453e",
		"7456f9cd42b05c4eae7d3f99d61cd49f8c0f1f27115120ead730819cf8310337",
		"ee72ce6ef335b502b361643503e5fa131cd0d2681f80887c88ecd5cdc8b1dfcf",
	},
	"figure7_fetch_sources_45nm.json": {
		"6b6b01e1bcdefa61ac1f7e5e41789a7034bc5e48c396c6ee199dcd99c0b45052",
	},
	"figure8_prefetch_sources_45nm.csv": {
		"5a71557d9496c67308000ba5cd7668daaf9568d6f7644666dff35a5b3313453e",
		"fca6e68cf09f810fdfc26df57ca4acb3a9562695620fc91563091c26b3deb5fa",
		"b3a8fc327662d1eda3af22e9c6393f827719ad8232816213365b40e5eff65552",
	},
	"figure8_prefetch_sources_45nm.json": {
		"dc35eaac7af56fdb2d59a4ac2493748843798c475faa8004ba470144bf9e049a",
	},
}

// pinnedSeeds3 is the `Seeds: 3` run: every point a mean over seeds 1-3
// with n, stddev and ci95 columns.
var pinnedSeeds3 = pins{
	"cycle_breakdown_90nm.csv": {
		"60cf46cc9956976f6489dca53dfa87b495d96d6fa033f85a31e862557e1fa8bf",
		"2c25a8bfe186a34dc15a823ace07d2924bd36044e9af1e4c48ddb54d4a96cb34",
		"539cc47946b2d5d1990e4197336e8cfa7593f57015ec7c4a2e2233a465f0b235",
	},
	"cycle_breakdown_90nm.json": {
		"d00e510f664da5bd295136a3016bff9c0d882dce57ce328855cd121bb50dd88b",
	},
	"figure1_ipc_vs_l1_90nm.csv": {
		"c14c6aacdf3520b2545eedfe49447949126947a7c6fbe1e6bf34a04f68fd6669",
		"24bb0895402b894c6ca62b26f6504f443c643a6cb62939be03f4831fe7ea0acf",
		"8524e7a5b98ebd5ec32a6473012aeda0ae9356a273d9178bc67cb869e71482ce",
		"8c3e0d715824880f9b0bd634215b7eaa10fe6a7658b62588158378938fb1c74d",
		"f51010b4192ed7b7116083aca50f8af7301e5c0125ba0274384f2136a2828cc2",
		"898a93be41fb8d7c4357e73fdecc099407397c813d1f67e64104a71e1c9ce417",
		"34dad96b79b52c15746674b265b93bc9819eb3fa73eb806b848cc2cfff15d4b3",
		"8c526c1403b95997710d53489ad3a58a02a34451509a29176119594b5a6b790e",
		"ba8e71098f0d856f4b4c5aae71dd5e5b5fdb0ce503e52f1be652415f9c5b8092",
		"a84df5442b12a7467f67c5f6680efaa0637a32d766a855119e9dd83a558237f8",
	},
	"figure1_ipc_vs_l1_90nm.json": {
		"676b54d817709eb7f652767eb57fae8444df9694daabae2c35098f03374e36a8",
	},
	"figure6_ipc_90nm.csv": {
		"7fd4992e662fff61ce950825928866f1d377e1f16cbf3e8b48c61f2f3e9aae27",
		"9582c45a216706beea6f1f642968819c5441a278cadb357bc876d0a678736bb8",
		"ddf57a8dae781b601e8a2143c01bbcb378ab3d3e88d1c23bd9990fc5a0e9ac17",
		"1ae63df60c7d1bc8a187a662f2487b26d02f25fe85b89ca246095596b3a51a65",
	},
	"figure6_ipc_90nm.json": {
		"d37eedece07ae16d4dab38a0dc4629ce519c61bb86863b15fc03ca1e61905e9c",
	},
	"figure7_fetch_sources_90nm.csv": {
		"6a2cacd2337df24b0113e5d45d96593dc77e2043bb1ec5ed93e7a411c45de84f",
		"233b028e8faae6aedcdb3709344909931d88b6b6e9a0dfc95d292e25d33cd281",
		"6b746868cd7b28911176f586096a00a86a2ea832a56acb75e94f7dc5ef7f46de",
	},
	"figure7_fetch_sources_90nm.json": {
		"9d7050a322de299cb175e70eb942f2a0cee10772eef5c0fa0145cebac75353bf",
	},
	"figure8_prefetch_sources_90nm.csv": {
		"6a2cacd2337df24b0113e5d45d96593dc77e2043bb1ec5ed93e7a411c45de84f",
		"b9f692dc23aa81d7a2bbf764fdd706c92859962d588766608ded554a962f9c3b",
		"b019a6953c9a0b1d15f03c9bc95a37a7f2b65b31d76f26a7ec4b67e3b4512cc5",
	},
	"figure8_prefetch_sources_90nm.json": {
		"d82d575b3ac1487cb852ef33d16e83fd413ee57c446f9b2223f6be3ba51c7d3e",
	},
}

const figL1 = 2 << 10

// smokeConfig is the CLI's figures grid over CI's smoke workloads.
func smokeConfig(tech cacti.Tech, seeds, warmup int) dispatch.GridConfig {
	return dispatch.GridConfig{
		Profiles: []string{"gzip", "mcf"}, Insts: 20_000, Seed: 1, Seeds: seeds,
		Techs:        []cacti.Tech{tech},
		L0Variants:   true,
		IncludeIdeal: true,
		Warmup:       warmup,
	}
}

// snapshotCounter counts the warm-state artifacts a sweep fetches from and
// publishes to its store.
type snapshotCounter struct {
	dispatch.Store
	fetched, pushed atomic.Int64
}

func (s *snapshotCounter) FetchSnapshot(key string) ([]byte, error) {
	data, err := s.Store.FetchSnapshot(key)
	if err == nil {
		s.fetched.Add(1)
	}
	return data, err
}

func (s *snapshotCounter) PushSnapshot(key string, data []byte) error {
	s.pushed.Add(1)
	return s.Store.PushSnapshot(key, data)
}

// sweep runs a grid through an in-process orchestrator over st, as
// `clgpsim figures` does, and fails the test on any failed job. Without
// resume the orchestrator clears old shard results but keeps snapshots.
func sweep(t *testing.T, st dispatch.Store, gc dispatch.GridConfig) []dispatch.RunRecord {
	t.Helper()
	specs, err := dispatch.GridSpecs(gc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&dispatch.Orchestrator{Store: st}).Run(specs, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range out.Records {
		if rec.Err != "" {
			t.Fatalf("job %s failed: %s", rec.Job, rec.Err)
		}
	}
	return out.Records
}

// smokeRuns memoises the smoke grid's records per run, so each grid is
// simulated once per test binary. Tests in this package do not run in
// parallel.
var smokeRuns = map[string][]dispatch.RunRecord{}

// smoke returns the records of one smoke run: "plain", "seeds3", "cold"
// (warm-up at 10K, recording snapshots), "warm" (the cold run's grid
// again over its store, restoring every job from those snapshots), or
// "plain45" (the plain run at 45 nm, where the front end matters most).
func smoke(t *testing.T, run string) []dispatch.RunRecord {
	t.Helper()
	if recs, ok := smokeRuns[run]; ok {
		return recs
	}
	switch run {
	case "plain":
		smokeRuns[run] = sweep(t, dispatch.NewDirStore(t.TempDir()), smokeConfig(cacti.Tech90, 1, 0))
	case "plain45":
		smokeRuns[run] = sweep(t, dispatch.NewDirStore(t.TempDir()), smokeConfig(cacti.Tech45, 1, 0))
	case "seeds3":
		smokeRuns[run] = sweep(t, dispatch.NewDirStore(t.TempDir()), smokeConfig(cacti.Tech90, 3, 0))
	case "cold", "warm":
		st := &snapshotCounter{Store: dispatch.NewDirStore(t.TempDir())}
		smokeRuns["cold"] = sweep(t, st, smokeConfig(cacti.Tech90, 1, 10_000))
		if st.pushed.Load() == 0 {
			t.Fatal("cold run recorded no warm-state snapshots")
		}
		st.fetched.Store(0)
		st.pushed.Store(0)
		smokeRuns["warm"] = sweep(t, st, smokeConfig(cacti.Tech90, 1, 10_000))
		if st.fetched.Load() == 0 || st.pushed.Load() != 0 {
			t.Fatalf("warm run restored %d snapshots and recorded %d; want every job restored",
				st.fetched.Load(), st.pushed.Load())
		}
	default:
		t.Fatalf("unknown smoke run %q", run)
	}
	return smokeRuns[run]
}

// build builds the figures of smoke records, which are all at one node.
func build(t *testing.T, recs []dispatch.RunRecord) []Figure {
	t.Helper()
	tech, err := cacti.ParseTech(recs[0].Spec.Tech)
	if err != nil {
		t.Fatal(err)
	}
	figs, err := Build(recs, []cacti.Tech{tech}, figL1)
	if err != nil {
		t.Fatal(err)
	}
	return figs
}

// emit writes the figures the way the CLI does and reads every file back.
func emit(t *testing.T, figs []Figure) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	bases, err := Write(dir, figs)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, 2*len(bases))
	for _, base := range bases {
		for _, ext := range []string{".csv", ".json"} {
			data, err := os.ReadFile(base + ext)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.Base(base)+ext] = data
		}
	}
	return files
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digests computes a file's pin: one SHA-256 per line of a CSV, one of the
// whole file otherwise.
func digests(name string, data []byte) []string {
	if !strings.HasSuffix(name, ".csv") {
		return []string{sha(data)}
	}
	var out []string
	for _, row := range bytes.SplitAfter(data, []byte("\n")) {
		if len(row) > 0 {
			out = append(out, sha(row))
		}
	}
	return out
}

// diffPins compares emitted files against their pins and returns one
// message per differing, missing or unexpected file, naming the first
// differing row of a CSV.
func diffPins(files map[string][]byte, want pins) []string {
	var msgs []string
	for name, data := range files {
		pin, ok := want[name]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: emitted but not pinned", name))
			continue
		}
		got := digests(name, data)
		if !strings.HasSuffix(name, ".csv") {
			if got[0] != pin[0] {
				msgs = append(msgs, fmt.Sprintf("%s: sha256 %s, pinned %s", name, got[0], pin[0]))
			}
			continue
		}
		rows := bytes.SplitAfter(data, []byte("\n"))
		for i := 0; i < len(got) || i < len(pin); i++ {
			switch {
			case i >= len(got):
				msgs = append(msgs, fmt.Sprintf("%s: row %d missing (%d rows, pinned %d)", name, i+1, len(got), len(pin)))
			case i >= len(pin):
				msgs = append(msgs, fmt.Sprintf("%s: row %d %q not pinned (%d rows, pinned %d)", name, i+1, rows[i], len(got), len(pin)))
			case got[i] != pin[i]:
				msgs = append(msgs, fmt.Sprintf("%s: row %d %q differs from its pin", name, i+1, rows[i]))
			default:
				continue
			}
			break
		}
	}
	for name := range want {
		if _, ok := files[name]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s: pinned but not emitted", name))
		}
	}
	sort.Strings(msgs)
	return msgs
}

// committedForm renders emitted files' digests as a pins literal.
func committedForm(files map[string][]byte) string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("pins{\n")
	for _, name := range names {
		fmt.Fprintf(&b, "\t%q: {\n", name)
		for _, d := range digests(name, files[name]) {
			fmt.Fprintf(&b, "\t\t%q,\n", d)
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}")
	return b.String()
}

// TestEmittedFiguresPinned is the behaviour contract: every run of the
// smoke grid emits exactly the pinned bytes. Cold and warm runs must match
// the plain run, so snapshot recording and restoring cannot move a figure.
func TestEmittedFiguresPinned(t *testing.T) {
	for _, tc := range []struct {
		run  string
		want pins
	}{
		{"plain", pinnedSingle},
		{"plain45", pinnedSingle45},
		{"seeds3", pinnedSeeds3},
		{"cold", pinnedSingle},
		{"warm", pinnedSingle},
	} {
		t.Run(tc.run, func(t *testing.T) {
			files := emit(t, build(t, smoke(t, tc.run)))
			if msgs := diffPins(files, tc.want); len(msgs) > 0 {
				t.Errorf("emitted figures differ from the pins:\n  %s\n\ngot, in committed form:\n%s",
					strings.Join(msgs, "\n  "), committedForm(files))
			}
		})
	}
}

// TestOneULPEditFailsPins: the oracle is exact. Moving any one emitted value
// by one ULP fails the comparison, and the failure names the figure's CSV
// and the row the value sits in, plus its JSON.
func TestOneULPEditFailsPins(t *testing.T) {
	figs := build(t, smoke(t, "plain"))
	files := emit(t, figs)
	if msgs := diffPins(files, pinnedSingle); len(msgs) > 0 {
		t.Fatalf("unedited figures do not match the pins:\n  %s", strings.Join(msgs, "\n  "))
	}
	edits := 0
	for _, f := range figs {
		for _, s := range f.Set.Series {
			for i, y := range s.Y {
				s.Y[i] = math.Nextafter(y, math.Inf(1))
				edited := make(map[string][]byte, len(files))
				for name, data := range files {
					edited[name] = data
				}
				var buf bytes.Buffer
				if err := f.Set.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				edited[f.Name+".csv"] = buf.Bytes()
				js, err := f.Set.JSON()
				if err != nil {
					t.Fatal(err)
				}
				edited[f.Name+".json"] = js
				s.Y[i] = y

				msgs := diffPins(edited, pinnedSingle)
				// The quoted row the message prints opens with the point's label.
				row := fmt.Sprintf("%s.csv: row ", f.Name)
				lead := ` "` + f.Set.Label(s.X[i]) + ","
				if len(msgs) != 2 || !strings.HasPrefix(msgs[0], row) || !strings.Contains(msgs[0], lead) ||
					!strings.HasPrefix(msgs[1], f.Name+".json: ") {
					t.Fatalf("%s %s[%d] moved one ULP: got\n  %s\nwant the CSV row starting%s, then the JSON",
						f.Name, s.Name, i, strings.Join(msgs, "\n  "), lead)
				}
				edits++
			}
		}
	}
	if edits == 0 {
		t.Fatal("no figure values to edit")
	}
}

// TestReplicatedFigure6CarriesCI: on the 3-seed grid every Figure 6 series
// reports n = 3 at every point and a nonzero CI somewhere, in the CSV and
// in the JSON alike.
func TestReplicatedFigure6CarriesCI(t *testing.T) {
	files := emit(t, build(t, smoke(t, "seeds3")))
	rows, err := csv.NewReader(bytes.NewReader(files["figure6_ipc_90nm.csv"])).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header, body := rows[0], rows[1:]
	series := 0
	for col, name := range header {
		if !strings.HasSuffix(name, "_ci95") {
			continue
		}
		series++
		base := strings.TrimSuffix(name, "_ci95")
		if header[col-3] != base || header[col-2] != base+"_n" {
			t.Fatalf("CSV columns of %s out of order: %v", base, header)
		}
		wide := false
		for _, r := range body {
			if r[col-2] != "3" {
				t.Errorf("CSV %s at %s: n = %q, want 3", base, r[0], r[col-2])
			}
			if ci, err := strconv.ParseFloat(r[col], 64); err != nil {
				t.Errorf("CSV %s at %s: ci95 %q: %v", base, r[0], r[col], err)
			} else if ci > 0 {
				wide = true
			}
		}
		if !wide {
			t.Errorf("CSV %s: every ci95 is zero", base)
		}
	}
	if series != len(engineVariants) {
		t.Errorf("CSV has CI columns for %d series, want %d", series, len(engineVariants))
	}

	set, err := stats.SeriesSetFromJSON(files["figure6_ipc_90nm.json"])
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Series) != len(engineVariants) {
		t.Errorf("JSON has %d series, want %d", len(set.Series), len(engineVariants))
	}
	for _, s := range set.Series {
		if len(s.N) != len(s.X) || len(s.CI95) != len(s.X) {
			t.Errorf("JSON %s: %d points but %d n and %d ci95", s.Name, len(s.X), len(s.N), len(s.CI95))
			continue
		}
		wide := false
		for i, n := range s.N {
			if n != 3 {
				t.Errorf("JSON %s at x=%v: n = %d, want 3", s.Name, s.X[i], n)
			}
			if s.CI95[i] > 0 {
				wide = true
			}
		}
		if !wide {
			t.Errorf("JSON %s: every ci95 is zero", s.Name)
		}
	}
}

// TestPartialReplicatePointIsDropped: a grid point missing one replicate is
// left out of Figure 6, and so is its profile's HMEAN bar, rather than
// shown as a mean over the replicates that remain (which would fake a
// narrower CI). The rest of the figure is unaffected.
func TestPartialReplicatePointIsDropped(t *testing.T) {
	all := smoke(t, "seeds3")
	var recs []dispatch.RunRecord
	for _, rec := range all {
		s := rec.Spec
		if s.Profile == "gzip" && s.Engine == "clgp" && s.UseL0 && !s.Ideal && s.L1Size == figL1 && s.Rep == 1 {
			continue
		}
		recs = append(recs, rec)
	}
	if len(recs) != len(all)-1 {
		t.Fatalf("dropped %d records, want 1", len(all)-len(recs))
	}
	var fig6 *stats.SeriesSet
	for _, f := range build(t, recs) {
		if f.Name == "figure6_ipc_90nm" {
			fig6 = f.Set
		}
	}
	if fig6 == nil {
		t.Fatal("no figure6_ipc_90nm")
	}
	gzip, mcf, hmean := 0.0, 1.0, 2.0 // category indices into fig6.Labels
	for _, s := range fig6.Series {
		for _, x := range []float64{gzip, mcf, hmean} {
			n, _, _ := s.StatAt(x)
			present := !math.IsNaN(s.YAt(x))
			wantPresent := s.Name != "clgp+l0" || x == mcf
			if present != wantPresent || (present && n != 3) {
				t.Errorf("%s at %s: present %v with n = %d, want present %v with n = 3",
					s.Name, fig6.Label(x), present, n, wantPresent)
			}
		}
	}
}
