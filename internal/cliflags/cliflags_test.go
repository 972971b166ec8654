package cliflags

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lazydram/internal/obs"
)

// TestFlagNamesStable pins the exact flag names the tools have always
// exposed: renaming any of these breaks every script and CI recipe that
// drives lazysim/experiments.
func TestFlagNamesStable(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	AddProfiling(fs)
	AddMetrics(fs)
	AddDigest(fs)
	for _, name := range []string{
		"pprof", "cpuprofile", "metrics-addr",
		"digest-every", "digest-cap", "digest-log",
	} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestDigestNormalize(t *testing.T) {
	d := &Digest{Log: "out.jsonl"}
	d.Normalize()
	if d.Every != obs.DefaultDigestEvery {
		t.Fatalf("log without interval: every = %d, want default %d", d.Every, obs.DefaultDigestEvery)
	}
	d = &Digest{Log: "out.jsonl", Every: 16}
	d.Normalize()
	if d.Every != 16 {
		t.Fatalf("explicit interval overridden: %d", d.Every)
	}
	d = &Digest{}
	d.Normalize()
	if d.Every != 0 {
		t.Fatalf("digest enabled with no flags: %d", d.Every)
	}
}

// TestServeMetricsEndToEnd binds :0 and scrapes both endpoints.
func TestServeMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cliflags_test_total", "test counter").Add(3)
	srv, addr, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/vars"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "cliflags_test_total") {
			t.Errorf("%s missing registered family:\n%s", path, body)
		}
	}
}

// TestMetricsServeUnsetIsNoop: the flag-group Serve helper must do nothing
// when -metrics-addr was not given.
func TestMetricsServeUnsetIsNoop(t *testing.T) {
	m := &Metrics{}
	srv, addr, err := m.Serve(obs.NewRegistry())
	if srv != nil || addr != "" || err != nil {
		t.Fatalf("Serve on unset flag: %v %q %v", srv, addr, err)
	}
}

// TestProfilingStartFailures: an unbindable pprof address and an unwritable
// profile path must both surface as errors (the tools exit 1 on them).
func TestProfilingStartFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p := &Profiling{PprofAddr: ln.Addr().String()}
	if _, err := p.Start(); err == nil {
		t.Error("occupied pprof address did not error")
	}
	p = &Profiling{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "prof")}
	if _, err := p.Start(); err == nil {
		t.Error("unwritable cpuprofile path did not error")
	}
}

// TestProfilingStartStop: the happy path starts and flushes a real profile.
func TestProfilingStartStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	p := &Profiling{CPUProfile: path}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("profile file empty after stop")
	}
}
