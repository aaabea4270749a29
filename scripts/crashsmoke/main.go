// Command crashsmoke is the gate's crash-recovery check: it boots a
// real teaserve binary with a job journal, completes one job and saves
// its profile bytes, submits a batch more, then SIGKILLs the server
// mid-run — no drain, no journal close. A second server started on the
// same journal directory must (a) serve the completed job's profile
// byte-identical to the pre-crash response, and (b) finish every
// interrupted job with profiles byte-identical to the same spec's
// pre-crash run. Recovery must also be visible in /v1/stats: every job
// the smoke saw done before the kill comes back restored, never re-run
// (restored_done counts at least those), and no more jobs are requeued
// than were in flight. The restarted server must report durable mode and
// shut down cleanly.
//
//	go build -o bin/teaserve ./cmd/teaserve
//	go run ./scripts/crashsmoke -bin bin/teaserve
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// jobBody is the one spec every smoke job uses, so byte-identity can
// be asserted across jobs as well as across the crash.
const jobBody = `{"tenant":"crash","workload":"mcf","techniques":["tea"],"config":{"scale":0.05}}`

// interrupted is how many jobs are in flight when the SIGKILL lands.
const interrupted = 4

func main() {
	bin := flag.String("bin", "bin/teaserve", "teaserve binary to smoke")
	flag.Parse()
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "crashsmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("crashsmoke: PASS")
}

// server is one teaserve process plus the log file its address is
// parsed from.
type server struct {
	cmd *exec.Cmd
	log string
	url string
}

func start(bin, journalDir string) (*server, error) {
	logFile, err := os.CreateTemp("", "crashsmoke-log-*")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-queue", "64",
		"-quota-rate", "0",
		"-journal-dir", journalDir,
	)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	logFile.Close()
	s := &server{cmd: cmd, log: logFile.Name()}
	s.url, err = waitListening(s.log)
	if err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	return s, nil
}

func run(bin string) error {
	journalDir, err := os.MkdirTemp("", "crashsmoke-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(journalDir)

	s1, err := start(bin, journalDir)
	if err != nil {
		return err
	}
	defer s1.cmd.Process.Kill()
	defer os.Remove(s1.log)
	client := &http.Client{Timeout: 30 * time.Second}

	// Phase 1: complete one job and capture its exact profile bytes.
	doneID, err := submit(client, s1.url)
	if err != nil {
		return err
	}
	if status, err := await(client, s1.url, doneID, 60*time.Second); err != nil {
		return err
	} else if status != "done" {
		return fmt.Errorf("pre-crash job %s finished %q, want done", doneID, status)
	}
	want, err := profile(client, s1.url, doneID)
	if err != nil {
		return err
	}

	// Phase 2: put a batch in flight and kill -9 mid-run. A 202 means
	// the submission is journaled (the WAL append is fsync'd before the
	// response), so every one of these jobs must survive the crash.
	var inflight []string
	for i := 0; i < interrupted; i++ {
		id, err := submit(client, s1.url)
		if err != nil {
			return err
		}
		inflight = append(inflight, id)
	}
	// A client that has seen a job done may rely on it: count every job
	// observed done before the kill — the first one, plus any of the
	// batch this last poll catches finished.
	observedDone := 1
	for _, id := range inflight {
		var view struct {
			Status string `json:"status"`
		}
		if err := getInto(client, s1.url+"/v1/jobs/"+id, &view); err != nil {
			return err
		}
		if view.Status == "done" {
			observedDone++
		}
	}
	if err := s1.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	s1.cmd.Wait() // reap; exit status is irrelevant after SIGKILL

	// Phase 3: restart on the same journal and check recovery.
	s2, err := start(bin, journalDir)
	if err != nil {
		return fmt.Errorf("restart after crash: %w", err)
	}
	defer s2.cmd.Process.Kill()
	defer os.Remove(s2.log)

	got, err := profile(client, s2.url, doneID)
	if err != nil {
		return fmt.Errorf("recovered job %s: %w", doneID, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("recovered job %s: profile differs from pre-crash bytes (%d vs %d)",
			doneID, len(got), len(want))
	}
	for _, id := range inflight {
		status, err := await(client, s2.url, id, 120*time.Second)
		if err != nil {
			return fmt.Errorf("interrupted job %s: %w", id, err)
		}
		if status != "done" {
			return fmt.Errorf("interrupted job %s finished %q after recovery, want done", id, status)
		}
		got, err := profile(client, s2.url, id)
		if err != nil {
			return fmt.Errorf("interrupted job %s: %w", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("interrupted job %s: recovered profile differs from the pre-crash run (%d vs %d)",
				id, len(got), len(want))
		}
	}

	// Recovery must be observable: durable mode, every job observed done
	// restored rather than requeued, and no more requeues than jobs in
	// flight.
	var stats struct {
		Durability struct {
			Mode     string `json:"mode"`
			Recovery struct {
				Replayed     int `json:"replayed"`
				RestoredDone int `json:"restored_done"`
				Requeued     int `json:"requeued"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	if err := getInto(client, s2.url+"/v1/stats", &stats); err != nil {
		return err
	}
	d := stats.Durability
	if d.Mode != "durable" {
		return fmt.Errorf("restarted server mode %q, want durable", d.Mode)
	}
	if r := d.Recovery; r.Replayed == 0 || r.RestoredDone < observedDone || r.Requeued > interrupted {
		return fmt.Errorf("recovery %+v: want replayed > 0, restored_done >= %d (jobs observed done before the kill), requeued <= %d (jobs in flight)",
			r, observedDone, interrupted)
	}
	fmt.Printf("crashsmoke: %d jobs observed done before the kill; recovery %+v\n", observedDone, d.Recovery)

	// Clean shutdown of the recovered server.
	if err := s2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- s2.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			log, _ := os.ReadFile(s2.log)
			return fmt.Errorf("recovered server exited nonzero after SIGTERM: %v\n%s", err, log)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("recovered server did not exit within 30s of SIGTERM")
	}
	return nil
}

func submit(client *http.Client, base string) (string, error) {
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(jobBody))
	if err != nil {
		return "", err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit answered %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return "", fmt.Errorf("undecodable submit response %q", data)
	}
	return sub.ID, nil
}

func await(client *http.Client, base, id string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var view struct {
			Status string `json:"status"`
		}
		if err := getInto(client, base+"/v1/jobs/"+id, &view); err != nil {
			return "", err
		}
		switch view.Status {
		case "done", "failed", "canceled":
			return view.Status, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return "", fmt.Errorf("job %s never reached a terminal status", id)
}

func profile(client *http.Client, base, id string) ([]byte, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/profiles/tea")
	if err != nil {
		return nil, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile answered %d: %s", resp.StatusCode, data)
	}
	return data, nil
}

func getInto(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitListening polls the server log for the listening line and
// extracts the bound address.
func waitListening(logPath string) (string, error) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(logPath)
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if addr, ok := strings.CutPrefix(line, "teaserve: listening on "); ok {
					return "http://" + strings.TrimSpace(addr), nil
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("server never printed its listening line (log: %s)", logPath)
}
