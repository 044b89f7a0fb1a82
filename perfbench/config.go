package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// config mirrors workloads.json: the fixed constants every run reads.
type config struct {
	K         int                       `json:"k"`
	Workloads map[string]workloadConfig `json:"workloads"`
}

// workloadConfig holds one workload's sizes, shares of --seconds, rates
// and limits. Fields a workload does not use stay zero.
type workloadConfig struct {
	Dataset       string `json:"dataset"`
	N             int    `json:"n"`
	Queries       int    `json:"queries"`
	RecallQueries int    `json:"recall_queries"`
	InsertPool    int    `json:"insert_pool"`
	Shards        int    `json:"shards"`
	SetupBuilds   int    `json:"setup_builds"`

	SteadyShare float64 `json:"steady_share"`
	SteadyRate  float64 `json:"steady_rate_qps"`
	ZipfS       float64 `json:"zipf_s"`

	BatchShare float64 `json:"batch_share"`
	BatchSize  int     `json:"batch_size"`

	LadderShare   float64   `json:"ladder_share"`
	LadderRates   []float64 `json:"ladder_rates_qps"`
	LadderLimitMS float64   `json:"ladder_limit_ms"`
	QueryWorkers  int       `json:"query_workers"`

	InsertShare  float64 `json:"insert_share"`
	InsertRate   float64 `json:"insert_rate_per_s"`
	WriteWorkers int     `json:"write_workers"`

	WriteShare  float64 `json:"write_share"`
	WriteRate   float64 `json:"write_rate_per_s"`
	DeleteEvery int     `json:"delete_every"`
	ReadRate    float64 `json:"read_rate_qps"`
	ReadWorkers int     `json:"read_workers"`

	TracedQueries  int `json:"traced_queries"`
	ScanRefQueries int `json:"scan_ref_queries"`
}

func loadConfig(root string) (*config, error) {
	buf, err := os.ReadFile(filepath.Join(root, "perfbench", "workloads.json"))
	if err != nil {
		return nil, fmt.Errorf("read workload config: %w", err)
	}
	var c config
	if err := json.Unmarshal(buf, &c); err != nil {
		return nil, fmt.Errorf("parse workload config: %w", err)
	}
	return &c, nil
}
